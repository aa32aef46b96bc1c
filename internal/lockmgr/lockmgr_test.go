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
	m1.Unlock(context.Background(), "TX1", "R")
	// The upgraded-away share interest must not linger at the CF.
	if err := m2.Lock(context.Background(), "TX2", "R", Exclusive, tmo); err != nil {
		t.Fatalf("entry not clean after upgrade+unlock: %v", err)
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
	// The persistent record is on the new primary.
	recs, err := cf.LockOn(cfres.Primary().Structure("IRLM")).Records(context.Background(), "SYS1")
	if err != nil || len(recs) != 1 || recs[0].Resource != "A" {
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
