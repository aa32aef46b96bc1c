package ims

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"sysplex/internal/cds"
	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/db"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr/logrtest"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

// bankDBD is the classic IMS teaching hierarchy: customers own
// accounts, accounts own transactions.
var bankDBD = Hierarchy{
	Name: "BANKDB",
	Segments: []SegmentType{
		{Name: "CUSTOMER"},
		{Name: "ACCOUNT", Parent: "CUSTOMER"},
		{Name: "TRANS", Parent: "ACCOUNT"},
		{Name: "ADDRESS", Parent: "CUSTOMER"},
	},
}

type fixture struct {
	dbs map[string]*Database
}

func newFixture(t *testing.T, systems ...string) *fixture {
	t.Helper()
	farm := dasd.NewFarm(vclock.Real())
	farm.AddVolume("V", 8192, 2)
	pri, _ := farm.Allocate("V", "XCF.CDS", 128)
	store, _ := cds.New("S", vclock.Real(), pri, nil, cds.Options{})
	plex := xcf.NewSysplex("PLEX1", vclock.Real(), store, farm, xcf.Options{})
	fac := cf.New("CF01", vclock.Real())
	ls, _ := fac.AllocateLockStructure("IRLM", 1024)
	loggers := logrtest.Loggers(t, fac, farm, "V")
	fx := &fixture{dbs: map[string]*Database{}}
	for _, s := range systems {
		sys, err := plex.Join(s)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := lockmgr.New(context.Background(), sys, ls, vclock.Real())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := db.Open(context.Background(), db.Config{
			Name: "IMSP1", System: s, Farm: farm, Volume: "V",
			Facility: fac, Locks: lm, PoolFrames: 64, Logger: loggers(s),
			LockTimeout: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Open(context.Background(), eng, bankDBD, 32)
		if err != nil {
			t.Fatal(err)
		}
		fx.dbs[s] = d
	}
	return fx
}

func (fx *fixture) run(t *testing.T, sys string, fn func(tx *db.Tx, d *Database) error) {
	t.Helper()
	d := fx.dbs[sys]
	tx := d.eng.Begin(context.Background())
	if err := fn(tx, d); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestISRTAndGU(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		if err := d.ISRT(tx, "CUSTOMER", []string{"C1"}, []byte("Ada")); err != nil {
			return err
		}
		if err := d.ISRT(tx, "ACCOUNT", []string{"C1", "A1"}, []byte("chequing")); err != nil {
			return err
		}
		return d.ISRT(tx, "TRANS", []string{"C1", "A1", "T1"}, []byte("+100"))
	})
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		v, err := d.GU(tx, "TRANS", []string{"C1", "A1", "T1"})
		if err != nil || string(v) != "+100" {
			return fmt.Errorf("GU = %q err=%v", v, err)
		}
		return nil
	})
}

func TestISRTParentMustExist(t *testing.T) {
	fx := newFixture(t, "SYS1")
	d := fx.dbs["SYS1"]
	tx := d.eng.Begin(context.Background())
	defer tx.Abort()
	err := d.ISRT(tx, "ACCOUNT", []string{"NOCUST", "A1"}, nil)
	if !errors.Is(err, ErrNoParent) {
		t.Fatalf("err = %v", err)
	}
}

func TestISRTDuplicateRejected(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		return d.ISRT(tx, "CUSTOMER", []string{"C1"}, nil)
	})
	d := fx.dbs["SYS1"]
	tx := d.eng.Begin(context.Background())
	defer tx.Abort()
	if err := d.ISRT(tx, "CUSTOMER", []string{"C1"}, nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	fx := newFixture(t, "SYS1")
	d := fx.dbs["SYS1"]
	tx := d.eng.Begin(context.Background())
	defer tx.Abort()
	if err := d.ISRT(tx, "ACCOUNT", []string{"C1"}, nil); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ISRT(tx, "NOPE", []string{"X"}, nil); !errors.Is(err, ErrNoSegType) {
		t.Fatalf("err = %v", err)
	}
	if err := d.ISRT(tx, "CUSTOMER", []string{"bad|key"}, nil); !errors.Is(err, ErrKeySeparator) {
		t.Fatalf("err = %v", err)
	}
}

func TestREPL(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		return d.ISRT(tx, "CUSTOMER", []string{"C1"}, []byte("old"))
	})
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		return d.REPL(tx, "CUSTOMER", []string{"C1"}, []byte("new"))
	})
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		v, err := d.GU(tx, "CUSTOMER", []string{"C1"})
		if err != nil || string(v) != "new" {
			return fmt.Errorf("v=%q err=%v", v, err)
		}
		return nil
	})
	d := fx.dbs["SYS1"]
	tx := d.eng.Begin(context.Background())
	defer tx.Abort()
	if err := d.REPL(tx, "CUSTOMER", []string{"GHOST"}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDLETCascades(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		d.ISRT(tx, "CUSTOMER", []string{"C1"}, nil)
		d.ISRT(tx, "ACCOUNT", []string{"C1", "A1"}, nil)
		d.ISRT(tx, "ACCOUNT", []string{"C1", "A2"}, nil)
		d.ISRT(tx, "TRANS", []string{"C1", "A1", "T1"}, nil)
		d.ISRT(tx, "TRANS", []string{"C1", "A1", "T2"}, nil)
		d.ISRT(tx, "ADDRESS", []string{"C1", "HOME"}, nil)
		d.ISRT(tx, "CUSTOMER", []string{"C2"}, nil)
		return d.ISRT(tx, "ACCOUNT", []string{"C2", "A1"}, nil)
	})
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		return d.DLET(tx, "CUSTOMER", []string{"C1"})
	})
	d := fx.dbs["SYS1"]
	tx := d.eng.Begin(context.Background())
	defer tx.Abort()
	// Entire C1 subtree is gone...
	for _, probe := range [][2]interface{}{
		{"CUSTOMER", []string{"C1"}},
		{"ACCOUNT", []string{"C1", "A1"}},
		{"ACCOUNT", []string{"C1", "A2"}},
		{"TRANS", []string{"C1", "A1", "T1"}},
		{"TRANS", []string{"C1", "A1", "T2"}},
		{"ADDRESS", []string{"C1", "HOME"}},
	} {
		if _, err := d.GU(tx, probe[0].(string), probe[1].([]string)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%v survived DLET: %v", probe, err)
		}
	}
	// ...and C2's subtree is untouched.
	if _, err := d.GU(tx, "ACCOUNT", []string{"C2", "A1"}); err != nil {
		t.Fatalf("C2 damaged: %v", err)
	}
}

func TestChildrenAndRoots(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		d.ISRT(tx, "CUSTOMER", []string{"C2"}, nil)
		d.ISRT(tx, "CUSTOMER", []string{"C1"}, nil)
		d.ISRT(tx, "ACCOUNT", []string{"C1", "A2"}, nil)
		d.ISRT(tx, "ACCOUNT", []string{"C1", "A1"}, nil)
		return d.ISRT(tx, "TRANS", []string{"C1", "A1", "T1"}, nil)
	})
	d := fx.dbs["SYS1"]
	roots, err := d.Roots(context.Background())
	if err != nil || len(roots) != 2 || roots[0] != "C1" || roots[1] != "C2" {
		t.Fatalf("roots = %v err=%v", roots, err)
	}
	kids, err := d.Children(context.Background(), "ACCOUNT", []string{"C1"})
	if err != nil || len(kids) != 2 || kids[0] != "A1" || kids[1] != "A2" {
		t.Fatalf("children = %v err=%v", kids, err)
	}
	// Grandchildren are not reported as children.
	kids, _ = d.Children(context.Background(), "ACCOUNT", []string{"C2"})
	if len(kids) != 0 {
		t.Fatalf("C2 children = %v", kids)
	}
	if _, err := d.Children(context.Background(), "NOPE", []string{"C1"}); !errors.Is(err, ErrNoSegType) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.Children(context.Background(), "CUSTOMER", []string{"C1"}); !errors.Is(err, ErrBadPath) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossSystemHierarchySharing(t *testing.T) {
	fx := newFixture(t, "SYS1", "SYS2")
	// SYS1 builds a subtree; SYS2 reads and extends it immediately.
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		d.ISRT(tx, "CUSTOMER", []string{"C1"}, []byte("Ada"))
		return d.ISRT(tx, "ACCOUNT", []string{"C1", "A1"}, []byte("savings"))
	})
	fx.run(t, "SYS2", func(tx *db.Tx, d *Database) error {
		v, err := d.GU(tx, "ACCOUNT", []string{"C1", "A1"})
		if err != nil || string(v) != "savings" {
			return fmt.Errorf("v=%q err=%v", v, err)
		}
		return d.ISRT(tx, "TRANS", []string{"C1", "A1", "T1"}, []byte("+1"))
	})
	fx.run(t, "SYS1", func(tx *db.Tx, d *Database) error {
		v, err := d.GU(tx, "TRANS", []string{"C1", "A1", "T1"})
		if err != nil || string(v) != "+1" {
			return fmt.Errorf("v=%q err=%v", v, err)
		}
		return nil
	})
}

func TestHierarchyValidation(t *testing.T) {
	fx := newFixture(t, "SYS1")
	eng := fx.dbs["SYS1"].eng
	if _, err := Open(context.Background(), eng, Hierarchy{Name: "EMPTY"}, 8); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := Open(context.Background(), eng, Hierarchy{Name: "TWOROOT", Segments: []SegmentType{
		{Name: "A"}, {Name: "B"},
	}}, 8); err == nil {
		t.Fatal("two roots accepted")
	}
	if _, err := Open(context.Background(), eng, Hierarchy{Name: "ORPHAN", Segments: []SegmentType{
		{Name: "A"}, {Name: "B", Parent: "MISSING"},
	}}, 8); err == nil {
		t.Fatal("orphan parent accepted")
	}
	if _, err := Open(context.Background(), eng, Hierarchy{Name: "CYCLE", Segments: []SegmentType{
		{Name: "A", Parent: "B"}, {Name: "B", Parent: "A"},
	}}, 8); err == nil {
		t.Fatal("cycle accepted")
	}
	if d, err := Open(context.Background(), eng, bankDBD, 32); err != nil || d.Hierarchy().Name != "BANKDB" {
		t.Fatalf("reopen failed: %v", err)
	}
}
