package db

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sysplex/internal/cds"
	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr/logrtest"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

// newDurableFixture is newStreamFixture over a file-backed farm rooted
// at dir. Building a second fixture over the same dir after
// dasd.PowerCutFarm models a whole-sysplex cold restart: the CF (GBP,
// lock structure, log interim storage) is brand new, only DASD survives.
func newDurableFixture(t *testing.T, dir string, systems ...string) *dbFixture {
	t.Helper()
	clock := vclock.Real()
	farm, err := dasd.OpenFarm(clock, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := farm.AddVolume("DBVOL", 8192, 2); err != nil {
		t.Fatal(err)
	}
	pri, err := farm.Dataset("XCF.CDS")
	if err != nil {
		if pri, err = farm.Allocate("DBVOL", "XCF.CDS", 128); err != nil {
			t.Fatal(err)
		}
	}
	store, err := cds.New("S", clock, pri, nil, cds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plex := xcf.NewSysplex("PLEX1", clock, store, farm, xcf.Options{})
	fac := cf.New("CF01", clock)
	ls, err := fac.AllocateLockStructure("IRLM", 1024)
	if err != nil {
		t.Fatal(err)
	}
	fx := &dbFixture{farm: farm, fac: fac, plex: plex, loggers: logrtest.Loggers(t, fac, farm, "DBVOL"),
		locks: map[string]*lockmgr.Manager{}, engines: map[string]*Engine{}}
	for _, s := range systems {
		sys, err := plex.Join(s)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := lockmgr.New(context.Background(), sys, ls, clock)
		if err != nil {
			t.Fatal(err)
		}
		fx.locks[s] = lm
		eng, err := Open(context.Background(), Config{
			Name: "DBP1", System: s, Farm: farm, Volume: "DBVOL",
			Facility: fac, Locks: lm, LockTimeout: 3 * time.Second,
			PoolFrames: 64, Logger: fx.loggers(s),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenTable(context.Background(), "ACCT", 16); err != nil {
			t.Fatal(err)
		}
		fx.engines[s] = eng
	}
	return fx
}

// TestColdRestartReplaysWAL is the database half of the durability
// story: committed transactions whose pages only ever reached the
// (volatile) group buffer pool are rebuilt from the merged WAL streams
// by RecoverCold, while uncommitted work stays gone.
func TestColdRestartReplaysWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx := newDurableFixture(t, dir, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]

	want := map[string]string{}
	for i := 0; i < 8; i++ {
		e := e1
		if i%2 == 1 {
			e = e2
		}
		key, val := fmt.Sprintf("acct-%d", i), fmt.Sprintf("bal-%d", i*100)
		tx := e.Begin(ctx)
		if err := tx.Put("ACCT", key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	// Overwrite one record so replay order matters, and cast out part of
	// the pool so redo runs over a mix of casted-out and lost pages.
	tx := e1.Begin(ctx)
	if err := tx.Put("ACCT", "acct-0", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want["acct-0"] = "rewritten"
	if _, err := e1.CastoutOnce(ctx, 3); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction must not resurface.
	ghost := e2.Begin(ctx)
	if err := ghost.Put("ACCT", "ghost", []byte("boo")); err != nil {
		t.Fatal(err)
	}
	ghost.Abort()

	dasd.PowerCutFarm(fx.farm)

	fx2 := newDurableFixture(t, dir, "SYS1")
	e := fx2.engines["SYS1"]
	rep, err := e.RecoverCold(ctx)
	if err != nil {
		t.Fatalf("cold recovery: %v", err)
	}
	if rep.Transactions != 9 || rep.RedoApplied != 9 {
		t.Fatalf("report = %+v, want 9 transactions / 9 redos", rep)
	}
	tx2 := e.Begin(ctx)
	for key, val := range want {
		v, ok, err := tx2.Get("ACCT", key)
		if err != nil || !ok || string(v) != val {
			t.Fatalf("%s = %q ok=%v err=%v, want %q", key, v, ok, err, val)
		}
	}
	if _, ok, _ := tx2.Get("ACCT", "ghost"); ok {
		t.Fatal("uncommitted record survived the crash")
	}
	tx2.Commit()

	// Idempotence: a second cold pass redoes the same log with the same
	// result and no errors.
	if _, err := e.RecoverCold(ctx); err != nil {
		t.Fatalf("second cold recovery: %v", err)
	}
	tx3 := e.Begin(ctx)
	if v, ok, _ := tx3.Get("ACCT", "acct-0"); !ok || string(v) != "rewritten" {
		t.Fatalf("after second pass acct-0 = %q ok=%v", v, ok)
	}
	tx3.Commit()
}
