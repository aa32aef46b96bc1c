package logr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sysplex/internal/cfrm"
	"sysplex/internal/dasd"
	"sysplex/internal/timer"
	"sysplex/internal/vclock"
)

// durableFixture is newFixture over a file-backed farm rooted at dir,
// with a fresh (volatile) CF — reopening the same dir with a new
// fixture models a whole-sysplex cold restart.
func durableFixture(t *testing.T, dir string, systems ...string) *fixture {
	t.Helper()
	clock := vclock.Real()
	cfres, err := cfrm.New(cfrm.Policy{Mode: cfrm.ModeSimplex}, clock)
	if err != nil {
		t.Fatal(err)
	}
	farm, err := dasd.OpenFarm(clock, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := farm.AddVolume("LOGV", 2048, 2); err != nil {
		t.Fatal(err)
	}
	fx := &fixture{cfres: cfres, farm: farm, tmr: timer.New(clock), mgrs: map[string]*Manager{}}
	for _, s := range systems {
		m, err := New(Config{
			System: s, Front: cfres.Front(), Farm: farm, Volume: "LOGV",
			Timer: fx.tmr, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		fx.mgrs[s] = m
	}
	return fx
}

var durableSpec = StreamSpec{
	Name: "TEST.DURABLE", InterimEntries: 32,
	HighOffloadPct: 90, LowOffloadPct: 30, OffloadBlocks: 16,
}

// TestColdRestartExactlyOnce is the core durability property, run once
// per offload crash stage: every acknowledged record survives a
// whole-sysplex cold restart exactly once, whether the crash lands
// before any offload commit, between the DASD writes and the durable
// CTL, between the durable CTL and the pending set, between the pending
// set and the CF CTL, or after the CF commit but before interim cleanup.
func TestColdRestartExactlyOnce(t *testing.T) {
	for _, stage := range []string{"none", "dasd-written", "durable-ctl", "pending-written", "ctl-updated"} {
		stage := stage
		t.Run(stage, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			fx := durableFixture(t, dir, "SYSA")
			s := fx.connect(t, durableSpec)["SYSA"]

			acked := map[string]bool{}
			for i := 0; i < 25; i++ {
				payload := fmt.Sprintf("rec-%02d", i)
				if _, err := s.Write(ctx, []byte(payload)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				acked[payload] = true
			}
			if stage == "none" {
				if _, err := s.Offload(ctx); err != nil {
					t.Fatalf("offload: %v", err)
				}
			} else {
				s.testCrash = func(got string) bool { return got == stage }
				if _, err := s.Offload(ctx); err == nil {
					t.Fatalf("offload survived simulated crash at %s", stage)
				}
			}
			// Whole-sysplex power cut: the CF image is simply discarded
			// (a new cfrm.Manager below), un-synced DASD writes are
			// dropped, and the farm handle is abandoned mid-state.
			dasd.PowerCutFarm(fx.farm)

			fx2 := durableFixture(t, dir, "SYSA", "SYSB")
			streams := fx2.connect(t, durableSpec)
			for sys, s2 := range streams {
				cur, err := s2.Browse(ctx)
				if err != nil {
					t.Fatalf("%s browse: %v", sys, err)
				}
				got := map[string]bool{}
				prev := ""
				for {
					r, ok := cur.Next()
					if !ok {
						break
					}
					if r.Key <= prev {
						t.Fatalf("%s: keys out of order: %s after %s", sys, r.Key, prev)
					}
					prev = r.Key
					p := string(r.Data)
					if got[p] {
						t.Fatalf("%s: duplicate record %q after restart", sys, p)
					}
					got[p] = true
				}
				for p := range acked {
					if !got[p] {
						t.Fatalf("%s: acknowledged record %q lost across crash at %s", sys, p, stage)
					}
				}
				if len(got) != len(acked) {
					t.Fatalf("%s: recovered %d records, acked %d", sys, len(got), len(acked))
				}
			}
			// The recovered stream keeps working: more writes, an
			// offload, and the new records land after the old frontier.
			s2 := streams["SYSB"]
			if _, err := s2.Write(ctx, []byte("post-restart")); err != nil {
				t.Fatalf("post-restart write: %v", err)
			}
			if _, err := s2.Offload(ctx); err != nil {
				t.Fatalf("post-restart offload: %v", err)
			}
			cur, err := s2.Browse(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Len() != len(acked)+1 {
				t.Fatalf("post-restart browse len = %d, want %d", cur.Len(), len(acked)+1)
			}
		})
	}
}

// TestColdRestartAfterLargerRedo: a pass crashes after its durable
// frontier (at durable-ctl or pending-written), a peer takes over, more
// records arrive, and the peer's redo pass — moving more records from the
// same cursor, so its last block holds records the durable frontier does
// not name — completes or itself crashes after its DASD writes. Every
// acknowledged record survives the whole-sysplex cold restart that
// follows exactly once, and still after a later pass moves the frontier
// past the records the redo packed: browse takes from the chain only what
// the frontier names and nothing twice, and staging supplies the rest.
func TestColdRestartAfterLargerRedo(t *testing.T) {
	for _, first := range []string{"durable-ctl", "pending-written"} {
		for _, redo := range []string{"dasd-written", "none"} {
			t.Run(first+"/"+redo, func(t *testing.T) {
				ctx := context.Background()
				dir := t.TempDir()
				fx := durableFixture(t, dir, "SYSA", "SYSB")
				streams := fx.connect(t, durableSpec)
				acked := map[string]bool{}
				write := func(s *Stream, n int) {
					t.Helper()
					for i := 0; i < n; i++ {
						p := fmt.Sprintf("rec-%02d", len(acked))
						if _, err := s.Write(ctx, []byte(p)); err != nil {
							t.Fatalf("write %s: %v", p, err)
						}
						acked[p] = true
					}
				}
				// 20 records, below the high mark: the crashed pass moves 11.
				write(streams["SYSA"], 20)
				streams["SYSA"].testCrash = func(got string) bool { return got == first }
				if _, err := streams["SYSA"].Offload(ctx); err == nil {
					t.Fatalf("offload survived simulated crash at %s", first)
				}
				crashed, err := streams["SYSA"].readDurableFrontier()
				if err != nil || crashed.Offloaded != 11 {
					t.Fatalf("durable frontier after the crashed pass: %+v, %v", crashed, err)
				}
				fx.cfres.Front().FailConnector("SYSA")
				fx.mgrs["SYSB"].TakeoverFailed(ctx, "SYSA")
				// Six more: the redo pass moves 17, all in the block the
				// crashed pass filled with 11.
				peer := streams["SYSB"]
				write(peer, 6)
				peer.testCrash = func(got string) bool { return got == redo }
				n, err := peer.Offload(ctx)
				if (redo == "none") != (err == nil) {
					t.Fatalf("redo pass: moved %d, %v", n, err)
				}
				c, err := peer.readDurableFrontier()
				switch {
				case err != nil:
					t.Fatal(err)
				case redo == "none" && c.Offloaded != 17:
					t.Fatalf("durable frontier after the redo pass: %+v, want 17 offloaded", c)
				case redo != "none" && c != crashed:
					t.Fatalf("durable frontier after the crashed redo: %+v, want %+v", c, crashed)
				}
				dasd.PowerCutFarm(fx.farm)

				fx2 := durableFixture(t, dir, "SYSA", "SYSB")
				streams = fx2.connect(t, durableSpec)
				for sys, s := range streams {
					t.Run(sys, func(t *testing.T) { assertExactlyOnce(t, s, acked) })
				}
				// Six more, then a pass that takes the frontier past every
				// record the redo packed: the chain now holds some records
				// both in that block and in the fresh one this pass starts.
				write(streams["SYSA"], 6)
				if _, err := streams["SYSA"].Offload(ctx); err != nil {
					t.Fatal(err)
				}
				if c, err := streams["SYSA"].readFrontier(ctx); err != nil || c.Offloaded != 23 {
					t.Fatalf("frontier after the post-restart pass: %+v, %v; want 23 offloaded", c, err)
				}
				for sys, s := range streams {
					t.Run(sys+"/after-pass", func(t *testing.T) { assertExactlyOnce(t, s, acked) })
				}
			})
		}
	}
}

// TestColdRestartMergesPeerStaging: records staged by a system that
// never comes back are still recovered by the surviving system.
func TestColdRestartMergesPeerStaging(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx := durableFixture(t, dir, "SYSA", "SYSB")
	streams := fx.connect(t, durableSpec)
	for i := 0; i < 6; i++ {
		sys := "SYSA"
		if i%2 == 1 {
			sys = "SYSB"
		}
		if _, err := streams[sys].Write(ctx, []byte(fmt.Sprintf("%s-%d", sys, i))); err != nil {
			t.Fatal(err)
		}
	}
	dasd.PowerCutFarm(fx.farm)

	// Only SYSA restarts.
	fx2 := durableFixture(t, dir, "SYSA")
	s := fx2.connect(t, durableSpec)["SYSA"]
	cur, err := s.Browse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fromB := 0
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if strings.HasPrefix(string(r.Data), "SYSB-") {
			fromB++
		}
	}
	if fromB != 3 {
		t.Fatalf("recovered %d SYSB records, want 3 (peer staging not merged)", fromB)
	}
	if cur.Len() != 6 {
		t.Fatalf("recovered %d records, want 6", cur.Len())
	}
}

// TestStagingCompaction drives enough write/offload cycles to wrap the
// staging pair several times, then cold-restarts and checks nothing
// above the frontier was lost and nothing below it reappears.
func TestStagingCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := StreamSpec{
		Name: "TEST.COMPACT", InterimEntries: 8,
		HighOffloadPct: 90, LowOffloadPct: 20, OffloadBlocks: 16,
	}
	fx := durableFixture(t, dir, "SYSA")
	s := fx.connect(t, spec)["SYSA"]
	// Staging holds InterimEntries+16 = 24 blocks per dataset; 120
	// records forces several compactions.
	total := 0
	for round := 0; round < 20; round++ {
		for i := 0; i < 6; i++ {
			if _, err := s.Write(ctx, []byte(fmt.Sprintf("r%03d", total))); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if _, err := s.Offload(ctx); err != nil {
			t.Fatalf("offload round %d: %v", round, err)
		}
	}
	if got := fx.mgrs["SYSA"].Metrics().Counter("logr.staging.compactions").Value(); got == 0 {
		t.Fatal("no staging compaction ran")
	}
	dasd.PowerCutFarm(fx.farm)

	fx2 := durableFixture(t, dir, "SYSA")
	s2 := fx2.connect(t, spec)["SYSA"]
	cur, err := s2.Browse(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != total {
		t.Fatalf("recovered %d records, want %d", cur.Len(), total)
	}
	seen := map[string]bool{}
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if seen[string(r.Data)] {
			t.Fatalf("duplicate %q after compacted restart", r.Data)
		}
		seen[string(r.Data)] = true
	}
}

// TestOldDurableCTLRefused: a durable CTL slot holding another layout —
// the JSON image earlier builds wrote — fails the cold restart by name.
// Skipping it as torn would seed an empty frontier over a populated
// offload chain and replay staging in front of it.
func TestOldDurableCTLRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx := durableFixture(t, dir, "SYSA")
	s := fx.connect(t, durableSpec)["SYSA"]
	for i := 0; i < 25; i++ {
		if _, err := s.Write(ctx, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Offload(ctx); err != nil {
		t.Fatal(err)
	}
	c, err := s.readDurableFrontier()
	if err != nil || c.Offloaded == 0 {
		t.Fatalf("durable frontier after a pass: %+v, %v", c, err)
	}
	old := fmt.Sprintf(`{"high":%q,"ds":%d,"blk":%d,"n":%d}`, c.HighKey, c.NextDataset, c.NextBlock, c.Offloaded)
	if err := s.ctlDS.Write("SYSA", int(c.Offloaded%2), []byte(old)); err != nil {
		t.Fatal(err)
	}
	if err := s.ctlDS.Sync(); err != nil {
		t.Fatal(err)
	}
	dasd.PowerCutFarm(fx.farm)

	fx2 := durableFixture(t, dir, "SYSA")
	if _, err := fx2.mgrs["SYSA"].Connect(ctx, durableSpec); !errors.Is(err, ErrCTLLayout) {
		t.Fatalf("cold restart over a JSON durable CTL: %v, want ErrCTLLayout", err)
	}
}
