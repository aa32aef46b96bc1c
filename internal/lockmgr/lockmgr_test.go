package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sysplex/internal/cds"
	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/dasd"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

type harness struct {
	plex *Sysplexish
}

// Sysplexish bundles the substrate for lock manager tests.
type Sysplexish struct {
	plex  *xcf.Sysplex
	fac   *cf.Facility
	ls    cf.Lock
	mgrs  map[string]*Manager
	order []string
}

func newHarness(t *testing.T, systems ...string) *Sysplexish {
	t.Helper()
	fac := cf.New("CF01", vclock.Real())
	h := newHarnessOn(t, fac, systems...)
	h.fac = fac
	return h
}

// newHarnessOn allocates the lock structure through front.
func newHarnessOn(t *testing.T, front cf.Front, systems ...string) *Sysplexish {
	t.Helper()
	farm := dasd.NewFarm(vclock.Real())
	if _, err := farm.AddVolume("V", 256, 1); err != nil {
		t.Fatal(err)
	}
	pri, _ := farm.Allocate("V", "CDS", 128)
	store, _ := cds.New("S", vclock.Real(), pri, nil, cds.Options{})
	plex := xcf.NewSysplex("PLEX1", vclock.Real(), store, farm, xcf.Options{})
	ls, err := front.AllocateLockStructure("IRLM", 512)
	if err != nil {
		t.Fatal(err)
	}
	h := &Sysplexish{plex: plex, ls: ls, mgrs: map[string]*Manager{}}
	for _, name := range systems {
		sys, err := plex.Join(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(context.Background(), sys, ls, vclock.Real())
		if err != nil {
			t.Fatal(err)
		}
		h.mgrs[name] = m
		h.order = append(h.order, name)
	}
	return h
}

func (h *Sysplexish) managers() []*Manager {
	out := make([]*Manager, 0, len(h.order))
	for _, n := range h.order {
		out = append(out, h.mgrs[n])
	}
	return out
}

const tmo = 2 * time.Second

func TestFastPathGrant(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1 := h.mgrs["SYS1"]
	if err := m1.Lock(context.Background(), "TX1", "DB.T1.R1", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	if m1.HeldMode("TX1", "DB.T1.R1") != Exclusive {
		t.Fatal("not held")
	}
	st := m1.Stats()
	if st.Locks != 1 || st.FastGrants != 1 || st.Negotiations != 0 {
		t.Fatalf("stats = %+v (fast path should be message-free)", st)
	}
	if err := m1.Unlock(context.Background(), "TX1", "DB.T1.R1"); err != nil {
		t.Fatal(err)
	}
	if m1.HeldMode("TX1", "DB.T1.R1") != 0 {
		t.Fatal("still held")
	}
}

func TestCrossSystemShareCompatible(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	if err := h.mgrs["SYS1"].Lock(context.Background(), "TX1", "R", Share, tmo); err != nil {
		t.Fatal(err)
	}
	if err := h.mgrs["SYS2"].Lock(context.Background(), "TX2", "R", Share, tmo); err != nil {
		t.Fatal(err)
	}
}

func TestCrossSystemRealContentionBlocksThenReleases(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "R", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m2.Lock(context.Background(), "TX2", "R", Exclusive, 5*time.Second) }()
	select {
	case err := <-got:
		t.Fatalf("lock granted while held: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := m1.Unlock(context.Background(), "TX1", "R"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
	st := m2.Stats()
	if st.RealContentions == 0 {
		t.Fatalf("stats = %+v, expected a real contention", st)
	}
}

func TestFalseContentionResolvedWithoutBlocking(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	// Find two distinct resources that hash to the same lock entry.
	base := "RES.A"
	target := h.ls.HashResource(base)
	var collide string
	for i := 0; ; i++ {
		c := fmt.Sprintf("RES.B%d", i)
		if c != base && h.ls.HashResource(c) == target {
			collide = c
			break
		}
	}
	if err := m1.Lock(context.Background(), "TX1", base, Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	// Different resource, same entry: must be granted after negotiation.
	if err := m2.Lock(context.Background(), "TX2", collide, Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	if st.FalseContentions != 1 || st.Negotiations == 0 {
		t.Fatalf("stats = %+v, expected one false contention", st)
	}
	// Cleanliness: both unlock, then a third party can take either.
	m1.Unlock(context.Background(), "TX1", base)
	m2.Unlock(context.Background(), "TX2", collide)
	if err := m1.Lock(context.Background(), "TX9", collide, Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
}

func TestIntraSystemQueueing(t *testing.T) {
	h := newHarness(t, "SYS1")
	m := h.mgrs["SYS1"]
	if err := m.Lock(context.Background(), "TX1", "R", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(context.Background(), "TX2", "R", Share, 5*time.Second) }()
	select {
	case <-done:
		t.Fatal("granted while exclusively held locally")
	case <-time.After(30 * time.Millisecond):
	}
	m.Unlock(context.Background(), "TX1", "R")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Intra-system conflicts never touch the wire.
	if st := m.Stats(); st.Negotiations != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUpgradeShareToExclusive(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "R", Share, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m1.Lock(context.Background(), "TX1", "R", Exclusive, tmo); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if m1.HeldMode("TX1", "R") != Exclusive {
		t.Fatal("mode not upgraded")
	}
	// The superseded share unit stays on the entry until the release.
	if share, excl, _ := h.ls.Interest(h.ls.HashResource("R"), "SYS1"); share != 1 || excl != 1 {
		t.Fatalf("interest while upgraded = %d share, %d exclusive; want 1, 1", share, excl)
	}
	m1.Unlock(context.Background(), "TX1", "R")
	if share, excl, _ := h.ls.Interest(h.ls.HashResource("R"), "SYS1"); share+excl != 0 {
		t.Fatalf("interest after unlock = %d share, %d exclusive; want none", share, excl)
	}
	// The upgraded-away share interest must not linger at the CF.
	if err := m2.Lock(context.Background(), "TX2", "R", Exclusive, tmo); err != nil {
		t.Fatalf("entry not clean after upgrade+unlock: %v", err)
	}
}

// TestDepositLockCommands counts the CF commands of a DEPOSIT's lock
// shape: share on the record, its upgrade to exclusive, an exclusive
// page latch, then commit's two release batches. A grant is one command
// (retained screen, grant and the owner's record) and a release one
// batched subcommand (interest and record delete), and the upgrade's
// share unit goes with the record's release: six commands, three of
// them synchronous obtains.
func TestDepositLockCommands(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, "SYS1")
	m := h.mgrs["SYS1"]
	kinds := []string{"obtain", "force", "release", "delrecord", "records"}
	count := func() map[string]int64 {
		out := map[string]int64{}
		for _, k := range kinds {
			out[k] = h.fac.Metrics().Counter("cf.cmd.lock." + k).Value()
		}
		return out
	}
	before := count()
	for _, lk := range []struct {
		res  string
		mode Mode
	}{{"R.DBP1.ACCT.k", Share}, {"R.DBP1.ACCT.k", Exclusive}, {"P.DBP1.ACCT.3", Exclusive}} {
		if err := m.Lock(ctx, "TX1", lk.res, lk.mode, tmo); err != nil {
			t.Fatal(err)
		}
	}
	granted := count()
	for _, res := range []string{"R.DBP1.ACCT.k", "P.DBP1.ACCT.3"} {
		if err := m.UnlockAll(ctx, "TX1", []string{res}); err != nil {
			t.Fatal(err)
		}
	}
	released := count()
	want := map[string][2]int64{"obtain": {3, 0}, "release": {0, 3}}
	for _, k := range kinds {
		if got := [2]int64{granted[k] - before[k], released[k] - granted[k]}; got != want[k] {
			t.Errorf("lock.%s: %d at grant, %d at release; want %d, %d", k, got[0], got[1], want[k][0], want[k][1])
		}
	}
	if recs, err := h.ls.Records(ctx, "SYS1"); err != nil || len(recs) != 0 {
		t.Fatalf("records after release = %+v, %v", recs, err)
	}
	for _, res := range []string{"R.DBP1.ACCT.k", "P.DBP1.ACCT.3"} {
		if share, excl, _ := h.ls.Interest(h.ls.HashResource(res), "SYS1"); share+excl != 0 {
			t.Errorf("%s: %d share, %d exclusive interest after release", res, share, excl)
		}
	}
}

func TestReGrantIsIdempotent(t *testing.T) {
	h := newHarness(t, "SYS1")
	m := h.mgrs["SYS1"]
	for i := 0; i < 3; i++ {
		if err := m.Lock(context.Background(), "TX1", "R", Exclusive, tmo); err != nil {
			t.Fatal(err)
		}
	}
	m.Unlock(context.Background(), "TX1", "R")
	if m.HeldMode("TX1", "R") != 0 {
		t.Fatal("still held after unlock")
	}
}

func TestTimeout(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	m1.Lock(context.Background(), "TX1", "R", Exclusive, tmo)
	err := m2.Lock(context.Background(), "TX2", "R", Exclusive, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if st := m2.Stats(); st.Timeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The timed-out waiter left no residue: unlock and relock works.
	m1.Unlock(context.Background(), "TX1", "R")
	if err := m2.Lock(context.Background(), "TX2", "R", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
}

func TestUnlockUnheldIsNoop(t *testing.T) {
	h := newHarness(t, "SYS1")
	if err := h.mgrs["SYS1"].Unlock(context.Background(), "TXX", "NEVER"); err != nil {
		t.Fatal(err)
	}
}

func TestCrossSystemDeadlockDetection(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "A", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m2.Lock(context.Background(), "TX2", "B", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	r1 := make(chan error, 1)
	r2 := make(chan error, 1)
	go func() { r1 <- m1.Lock(context.Background(), "TX1", "B", Exclusive, 10*time.Second) }()
	go func() { r2 <- m2.Lock(context.Background(), "TX2", "A", Exclusive, 10*time.Second) }()
	// Let both reach their blocked state.
	det := NewDetector(h.managers)
	var victims []string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		victims = det.DetectOnce()
		if len(victims) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(victims) != 1 || victims[0] != "TX2" {
		t.Fatalf("victims = %v, want [TX2] (youngest)", victims)
	}
	if err := <-r2; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("victim err = %v", err)
	}
	// Victim aborts its transaction, releasing B; TX1 proceeds.
	m2.Unlock(context.Background(), "TX2", "B")
	if err := <-r1; err != nil {
		t.Fatalf("survivor err = %v", err)
	}
}

func TestRetainedLocksProtectFailedSystemsResources(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "DB.P5", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	// SYS1 dies holding the lock.
	h.plex.PartitionNow("SYS1")
	h.fac.FailConnector("SYS1")

	// The resource stays protected: requests are refused, not granted.
	err := m2.Lock(context.Background(), "TX2", "DB.P5", Exclusive, 100*time.Millisecond)
	if !errors.Is(err, ErrRetained) {
		t.Fatalf("err = %v, want retained", err)
	}
	// Share on a share-retained? The record is exclusive: share refused too.
	if err := m2.Lock(context.Background(), "TX2", "DB.P5", Share, 100*time.Millisecond); !errors.Is(err, ErrRetained) {
		t.Fatalf("err = %v", err)
	}
	// Unrelated resources are unaffected.
	if err := m2.Lock(context.Background(), "TX2", "DB.P6", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}

	// Peer recovery: read retained resources, "recover" them, release.
	recs, err := m2.RetainedResources(context.Background(), "SYS1")
	if err != nil || len(recs) != 1 || recs[0].Resource != "DB.P5" {
		t.Fatalf("records = %v err=%v", recs, err)
	}
	if err := m2.ReleaseRetained(context.Background(), "SYS1", "DB.P5"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Lock(context.Background(), "TX2", "DB.P5", Exclusive, tmo); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestShutdownReleasesWaiters(t *testing.T) {
	h := newHarness(t, "SYS1")
	m := h.mgrs["SYS1"]
	m.Lock(context.Background(), "TX1", "R", Exclusive, tmo)
	done := make(chan error, 1)
	go func() { done <- m.Lock(context.Background(), "TX2", "R", Exclusive, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	m.Shutdown()
	if err := <-done; !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Lock(context.Background(), "TX3", "S", Share, tmo); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown lock: %v", err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	h := newHarness(t, "SYS1", "SYS2", "SYS3")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i, m := range h.managers() {
		for g := 0; g < 4; g++ {
			owner := fmt.Sprintf("TX%d-%d", i, g)
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					res := fmt.Sprintf("ROW.%d", k%7)
					mode := Share
					if k%3 == 0 {
						mode = Exclusive
					}
					if err := m.Lock(context.Background(), owner, res, mode, 10*time.Second); err != nil {
						errs <- err
						return
					}
					if err := m.Unlock(context.Background(), owner, res); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All entries must be clean afterwards: any lock grants instantly.
	for k := 0; k < 7; k++ {
		res := fmt.Sprintf("ROW.%d", k)
		if err := h.mgrs["SYS1"].Lock(context.Background(), "FINAL", res, Exclusive, tmo); err != nil {
			t.Fatalf("residue on %s: %v", res, err)
		}
		h.mgrs["SYS1"].Unlock(context.Background(), "FINAL", res)
	}
}

func TestWaitEdgesReflectBlocking(t *testing.T) {
	h := newHarness(t, "SYS1")
	m := h.mgrs["SYS1"]
	m.Lock(context.Background(), "TX1", "R", Exclusive, tmo)
	go m.Lock(context.Background(), "TX2", "R", Exclusive, 3*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		edges := m.WaitEdges()
		if len(edges) == 1 && edges[0].Waiter == "TX2" && edges[0].Holder == "TX1" {
			m.Unlock(context.Background(), "TX1", "R")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("wait edge never appeared")
}

func TestMutualExclusionInvariant(t *testing.T) {
	// Hammer one resource from 3 systems; a shared counter guarded only
	// by the sysplex lock must never be corrupted.
	h := newHarness(t, "SYS1", "SYS2", "SYS3")
	var unsafeCounter int // intentionally unguarded by Go sync; the DLM is the guard
	var inside int32
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for i, m := range h.managers() {
		owner := fmt.Sprintf("TX%d", i)
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if err := m.Lock(context.Background(), owner, "COUNTER", Exclusive, 20*time.Second); err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
				if n := atomicAdd(&inside, 1); n != 1 {
					select {
					case fail <- "two owners inside critical section":
					default:
					}
				}
				unsafeCounter++
				atomicAdd(&inside, -1)
				if err := m.Unlock(context.Background(), owner, "COUNTER"); err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if unsafeCounter != 150 {
		t.Fatalf("counter = %d, want 150 (mutual exclusion violated)", unsafeCounter)
	}
}

func atomicAdd(p *int32, d int32) int32 {
	return atomic.AddInt32(p, d)
}

// newRebuildHarness allocates the lock structure through a duplexed
// CFRM front, the only way a structure moves between facilities.
func newRebuildHarness(t *testing.T, systems ...string) (*Sysplexish, *cfrm.Manager) {
	t.Helper()
	cfres, err := cfrm.New(cfrm.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return newHarnessOn(t, cfres.Front(), systems...), cfres
}

// rebuild moves every structure off the current primary, then fails the
// facility it retired so nothing can still be served from there.
func rebuild(t *testing.T, cfres *cfrm.Manager) {
	t.Helper()
	old := cfres.Primary()
	if err := cfres.Rebuild(); err != nil {
		t.Fatal(err)
	}
	old.Fail()
}

func TestRebuildPreservesInterestAndRecords(t *testing.T) {
	h, cfres := newRebuildHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "A", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m1.Lock(context.Background(), "TX1", "B", Share, tmo); err != nil {
		t.Fatal(err)
	}
	rebuild(t, cfres)
	// Exclusive interest survived: SYS2 is still blocked.
	if err := m2.Lock(context.Background(), "TX2", "A", Exclusive, 60*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, exclusive interest lost", err)
	}
	// Share interest survived: a share grant works, exclusive is blocked.
	if err := m2.Lock(context.Background(), "TX2", "B", Share, tmo); err != nil {
		t.Fatal(err)
	}
	// The persistent record, with its owner, is on the new primary.
	recs, err := cf.LockOn(cfres.Primary().Structure("IRLM")).Records(context.Background(), "SYS1")
	if err != nil || len(recs) != 1 || recs[0].Resource != "A" || recs[0].Owner != "TX1" {
		t.Fatalf("records = %v err=%v", recs, err)
	}
	// Unlock flows work against the new structure.
	if err := m1.Unlock(context.Background(), "TX1", "A"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Lock(context.Background(), "TX2", "A", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildKeepsRetainedRecords(t *testing.T) {
	h, cfres := newRebuildHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	if err := m1.Lock(context.Background(), "TX1", "HELD", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
	// SYS1 fails; its record is retained.
	h.plex.PartitionNow("SYS1")
	cfres.Front().FailConnector("SYS1")
	// Rebuild onto a new facility before recovery has run.
	rebuild(t, cfres)
	// Retained protection still applies on the new structure.
	if err := m2.Lock(context.Background(), "TX2", "HELD", Exclusive, 60*time.Millisecond); !errors.Is(err, ErrRetained) {
		t.Fatalf("err = %v, retained protection lost across rebuild", err)
	}
	// Peer recovery against the new structure releases it.
	if err := m2.ReleaseRetained(context.Background(), "SYS1", "HELD"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Lock(context.Background(), "TX2", "HELD", Exclusive, tmo); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildKeepsRetainedOwners: a retained record still names the
// transaction that held the lock after rebuilds move the structure,
// since that owner decides what the failed system's peer redoes. The
// first rebuild lands on the mirrored secondary; the second on the copy
// re-duplexing cloned from it.
func TestRebuildKeepsRetainedOwners(t *testing.T) {
	h, cfres := newRebuildHarness(t, "SYS1", "SYS2")
	m1, m2 := h.mgrs["SYS1"], h.mgrs["SYS2"]
	for _, lk := range []struct{ owner, res string }{{"TX1", "A"}, {"TX2", "B"}} {
		if err := m1.Lock(context.Background(), lk.owner, lk.res, Exclusive, tmo); err != nil {
			t.Fatal(err)
		}
	}
	h.plex.PartitionNow("SYS1")
	cfres.Front().FailConnector("SYS1")
	rebuild(t, cfres)
	rebuild(t, cfres)
	recs, err := m2.RetainedResources(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, rec := range recs {
		got[rec.Resource] = rec.Owner
	}
	if len(got) != 2 || got["A"] != "TX1" || got["B"] != "TX2" {
		t.Fatalf("retained after rebuild = %+v, want A by TX1 and B by TX2", recs)
	}
}

// failingExclusive is a lock structure whose exclusive obtains fail.
type failingExclusive struct {
	cf.Lock
	err error
}

func (f failingExclusive) ObtainResource(ctx context.Context, conn, resource, owner string, mode cf.LockMode) (cf.ObtainResult, error) {
	if mode == cf.Exclusive {
		return cf.ObtainResult{}, f.err
	}
	return f.Lock.ObtainResource(ctx, conn, resource, owner, mode)
}

// TestFailedRecordWriteUndoesGrant: an exclusive grant and its
// persistent record are one CF command, so a failing obtain leaves no
// local hold, no CF interest and no record. The record decides a peer's
// redo, so the lock is never held without one: the request returns the
// command's error, and an upgrade keeps just the share hold it had.
func TestFailedRecordWriteUndoesGrant(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, "SYS2")
	sys1, err := h.plex.Join("SYS1")
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("exclusive obtain refused")
	m1, err := New(ctx, sys1, failingExclusive{h.ls, injected}, vclock.Real())
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Lock(ctx, "TX1", "A", Exclusive, tmo); !errors.Is(err, injected) {
		t.Fatalf("exclusive Lock = %v, want the obtain's error", err)
	}
	if mode := m1.HeldMode("TX1", "A"); mode != 0 {
		t.Fatalf("TX1 holds A in %v after the failed obtain", mode)
	}
	if share, excl, err := h.ls.Interest(h.ls.HashResource("A"), "SYS1"); err != nil || share+excl != 0 {
		t.Fatalf("SYS1 interest on A = %d share, %d exclusive (%v), want none", share, excl, err)
	}
	if recs, err := h.ls.Records(ctx, "SYS1"); err != nil || len(recs) != 0 {
		t.Fatalf("SYS1 records = %+v, %v; want none", recs, err)
	}
	if err := h.mgrs["SYS2"].Lock(ctx, "TX2", "A", Exclusive, 200*time.Millisecond); err != nil {
		t.Fatalf("SYS2 exclusive Lock after the failed obtain: %v", err)
	}

	// An upgrade: the share hold stays, and its release leaves nothing.
	if err := m1.Lock(ctx, "TX3", "B", Share, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m1.Lock(ctx, "TX3", "B", Exclusive, tmo); !errors.Is(err, injected) {
		t.Fatalf("upgrade = %v, want the obtain's error", err)
	}
	if mode := m1.HeldMode("TX3", "B"); mode != Share {
		t.Fatalf("TX3 holds B in %v after the failed upgrade, want share", mode)
	}
	if share, excl, err := h.ls.Interest(h.ls.HashResource("B"), "SYS1"); err != nil || share != 1 || excl != 0 {
		t.Fatalf("SYS1 interest on B = %d share, %d exclusive (%v), want 1 share", share, excl, err)
	}
	if err := h.mgrs["SYS2"].Lock(ctx, "TX4", "B", Share, 200*time.Millisecond); err != nil {
		t.Fatalf("SYS2 share Lock beside the share hold: %v", err)
	}
	if err := m1.UnlockAll(ctx, "TX3", []string{"B"}); err != nil {
		t.Fatal(err)
	}
	if share, excl, err := h.ls.Interest(h.ls.HashResource("B"), "SYS1"); err != nil || share+excl != 0 {
		t.Fatalf("SYS1 interest on B after release = %d share, %d exclusive (%v), want none", share, excl, err)
	}
}
