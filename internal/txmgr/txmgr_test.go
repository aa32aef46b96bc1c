package txmgr

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
	"sysplex/internal/wlm"
	"sysplex/internal/xcf"
)

type fixture struct {
	plex    *xcf.Sysplex
	regions map[string]*Region
	wlms    map[string]*wlm.Manager
	engines map[string]*db.Engine
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
	fx := &fixture{plex: plex, regions: map[string]*Region{},
		wlms: map[string]*wlm.Manager{}, engines: map[string]*db.Engine{}}
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
			Name: "DBP1", System: s, Farm: farm, Volume: "V",
			Facility: fac, Locks: lm, PoolFrames: 64, Logger: loggers(s),
			LockTimeout: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenTable(context.Background(), "ACCT", 16); err != nil {
			t.Fatal(err)
		}
		wm, err := wlm.New(sys, 100, wlm.Policy{Name: "STD"}, vclock.Real())
		if err != nil {
			t.Fatal(err)
		}
		fx.wlms[s] = wm
		fx.engines[s] = eng
		fx.regions[s] = New(sys, eng, wm, vclock.Real(), Options{})
	}
	// Register the same programs on every region ("applications
	// unchanged" — any instance can run any transaction).
	for _, r := range fx.regions {
		r.RegisterProgram("DEPOSIT", 1, func(tx *db.Tx, input []byte) ([]byte, error) {
			key := string(input)
			v, _, err := tx.Get("ACCT", key)
			if err != nil {
				return nil, err
			}
			var n int
			fmt.Sscanf(string(v), "%d", &n)
			if err := tx.Put("ACCT", key, []byte(fmt.Sprintf("%d", n+1))); err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("%d", n+1)), nil
		})
		r.RegisterProgram("READ", 1, func(tx *db.Tx, input []byte) ([]byte, error) {
			v, ok, err := tx.Get("ACCT", string(input))
			if err != nil {
				return nil, err
			}
			if !ok {
				return []byte("absent"), nil
			}
			return v, nil
		})
		r.RegisterProgram("FAIL", 1, func(tx *db.Tx, input []byte) ([]byte, error) {
			return nil, errors.New("application error")
		})
	}
	return fx
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLocalExecution(t *testing.T) {
	fx := newFixture(t, "SYS1")
	r := fx.regions["SYS1"]
	out, err := r.Submit(context.Background(), "DEPOSIT", []byte("alice"))
	if err != nil || string(out) != "1" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	out, err = r.Submit(context.Background(), "DEPOSIT", []byte("alice"))
	if err != nil || string(out) != "2" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	st := r.Stats()
	if st.LocalRuns != 2 || st.RoutedOut != 0 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnknownProgram(t *testing.T) {
	fx := newFixture(t, "SYS1")
	if _, err := fx.regions["SYS1"].Submit(context.Background(), "NOPE", nil); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplicationErrorAborts(t *testing.T) {
	fx := newFixture(t, "SYS1")
	r := fx.regions["SYS1"]
	if _, err := r.Submit(context.Background(), "FAIL", nil); err == nil {
		t.Fatal("application error swallowed")
	}
	if st := r.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Engine aborted the transaction.
	if st := fx.engines["SYS1"].Stats(); st.Aborts != 1 {
		t.Fatalf("engine stats = %+v", st)
	}
}

func TestDynamicRoutingWhenOverloaded(t *testing.T) {
	fx := newFixture(t, "SYS1", "SYS2")
	r1 := fx.regions["SYS1"]
	// Make SYS1 look saturated and SYS2 idle in everyone's WLM view.
	fx.wlms["SYS1"].SetUtilization(0.99)
	fx.wlms["SYS2"].SetUtilization(0.05)
	seedPeers(t, fx, "SYS1", "SYS2")

	out, err := r1.Submit(context.Background(), "DEPOSIT", []byte("bob"))
	if err != nil || string(out) != "1" {
		t.Fatalf("out=%q err=%v", out, err)
	}
	st1 := r1.Stats()
	if st1.RoutedOut != 1 || st1.LocalRuns != 0 {
		t.Fatalf("SYS1 stats = %+v (should have routed)", st1)
	}
	waitFor(t, "routed-in", func() bool { return fx.regions["SYS2"].Stats().RoutedIn == 1 })
	// The update is visible sysplex-wide regardless of where it ran.
	out, err = r1.Submit(context.Background(), "READ", []byte("bob"))
	if err != nil || string(out) != "1" {
		t.Fatalf("read out=%q err=%v", out, err)
	}
}

// seedPeers injects every system's current (overridden) utilization
// into every WLM manager's peer table so routing decisions see the
// intended sysplex-wide view deterministically.
func seedPeers(t *testing.T, fx *fixture, systems ...string) {
	t.Helper()
	for _, viewer := range systems {
		for _, subject := range systems {
			fx.wlms[viewer].IngestPeer(wlm.PeerState{
				System:       subject,
				CapacityMIPS: fx.wlms[subject].Capacity(),
				Utilization:  fx.wlms[subject].Utilization(),
				Sequence:     1 << 30,
			})
		}
	}
}

func TestParallelQueryMatchesSerial(t *testing.T) {
	fx := newFixture(t, "SYS1", "SYS2", "SYS3")
	r1 := fx.regions["SYS1"]
	// Load 60 records with numeric values.
	for i := 0; i < 60; i++ {
		if _, err := r1.Submit(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("acct%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Serial count on one system.
	serial, err := r1.ParallelQuery(context.Background(), []string{"SYS1"}, "ACCT", "sum", "acct")
	if err != nil {
		t.Fatal(err)
	}
	// Parallel across three systems.
	par, err := r1.ParallelQuery(context.Background(), []string{"SYS1", "SYS2", "SYS3"}, "ACCT", "sum", "acct")
	if err != nil {
		t.Fatal(err)
	}
	if par.Count != serial.Count || par.Sum != serial.Sum {
		t.Fatalf("parallel %+v != serial %+v", par, serial)
	}
	if par.Count != 60 || par.Sum != 60 {
		t.Fatalf("par = %+v, want count=60 sum=60", par)
	}
	if par.Parts != 3 {
		t.Fatalf("parts = %d", par.Parts)
	}
	// Remote fragments actually ran remotely.
	waitFor(t, "remote subqueries", func() bool {
		return fx.regions["SYS2"].Stats().SubQueries >= 1 && fx.regions["SYS3"].Stats().SubQueries >= 1
	})
}

func TestParallelQueryPrefixFilter(t *testing.T) {
	fx := newFixture(t, "SYS1")
	r := fx.regions["SYS1"]
	r.Submit(context.Background(), "DEPOSIT", []byte("aaa1"))
	r.Submit(context.Background(), "DEPOSIT", []byte("bbb1"))
	res, err := r.ParallelQuery(context.Background(), nil, "ACCT", "count", "aaa")
	if err != nil || res.Count != 1 {
		t.Fatalf("res = %+v err=%v", res, err)
	}
}

func TestWLMReporting(t *testing.T) {
	fx := newFixture(t, "SYS1")
	fx.regions["SYS1"].Submit(context.Background(), "DEPOSIT", []byte("x"))
	fx.wlms["SYS1"].EndInterval()
	cp, ok := fx.wlms["SYS1"].ClassPerformance(ServiceClass)
	if !ok || cp.Completions != 1 {
		t.Fatalf("class perf = %+v ok=%v", cp, ok)
	}
}

func TestShipToDeadSystemFails(t *testing.T) {
	fx := newFixture(t, "SYS1", "SYS2")
	r1 := fx.regions["SYS1"]
	// Force routing to SYS2, then kill it between the WLM view and the
	// ship: Send fails with ErrSystemDown and the submit fails cleanly.
	fx.wlms["SYS1"].SetUtilization(0.99)
	fx.wlms["SYS2"].SetUtilization(0.05)
	seedPeers(t, fx, "SYS1", "SYS2")
	fx.plex.PartitionNow("SYS2")
	if _, err := r1.Submit(context.Background(), "DEPOSIT", []byte("k")); err == nil {
		t.Fatal("ship to dead system succeeded")
	}
	if st := r1.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteUnknownProgramSurfacesError(t *testing.T) {
	fx := newFixture(t, "SYS1", "SYS2")
	r1 := fx.regions["SYS1"]
	// SYS2 is idle and SYS1 saturated, so the request ships; make the
	// program exist only locally.
	r1.RegisterProgram("ONLYHERE", 1, func(tx *db.Tx, in []byte) ([]byte, error) { return in, nil })
	fx.wlms["SYS1"].SetUtilization(0.99)
	fx.wlms["SYS2"].SetUtilization(0.05)
	seedPeers(t, fx, "SYS1", "SYS2")
	_, err := r1.Submit(context.Background(), "ONLYHERE", []byte("x"))
	if err == nil {
		t.Fatal("remote missing program succeeded")
	}
	if !errors.Is(err, ErrShipped) {
		t.Fatalf("err = %v, want shipped-error wrapper", err)
	}
}
