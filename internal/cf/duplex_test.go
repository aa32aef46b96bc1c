package cf

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Duplexed, *Facility, *Facility) {
	t.Helper()
	pri := New("CF01", nil)
	sec := New("CF02", nil)
	return NewDuplexed(nil, nil, pri, sec), pri, sec
}

func TestDuplexedMirrorsLockCommands(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	res, err := ls.Obtain(context.Background(), 7, "SYS1", Exclusive)
	if err != nil || !res.Granted {
		t.Fatalf("Obtain = %+v, %v", res, err)
	}
	if res, err := ls.ObtainResource(context.Background(), "SYS1", "ACCT/k1", "TX1", Exclusive); err != nil || !res.Granted {
		t.Fatalf("ObtainResource = %+v, %v", res, err)
	}
	// Both replicas must hold identical interest and records.
	for _, f := range []*Facility{pri, sec} {
		raw := f.structureByName("IRLM").(*LockStructure)
		_, excl, err := raw.Interest(7, "SYS1")
		if err != nil || excl != 1 {
			t.Fatalf("%s: excl interest = %d, %v", f.Name(), excl, err)
		}
		_, excl, err = raw.Interest(ls.HashResource("ACCT/k1"), "SYS1")
		if err != nil || excl == 0 {
			t.Fatalf("%s: ACCT/k1 excl interest = %d, %v", f.Name(), excl, err)
		}
		recs, err := raw.Records(context.Background(), "SYS1")
		if err != nil || len(recs) != 1 || recs[0].Resource != "ACCT/k1" || recs[0].Owner != "TX1" {
			t.Fatalf("%s: records = %+v, %v", f.Name(), recs, err)
		}
	}
}

// TestRetainedRecordDeleteOrderedWithObtain: a recovering peer's delete
// of a failed system's record and another system's obtain of the same
// resource, racing through a duplexed pair, apply in one order on both
// replicas, because both are keyed on the resource's entry. Ordered on
// different stripes they could interleave — the primary granting after
// the delete, the secondary refusing before it — and a refusal is a
// reply, not an error, so the pair would not notice: the replicas would
// disagree on interest and records. Each replica's service time widens
// the window.
func TestRetainedRecordDeleteOrderedWithObtain(t *testing.T) {
	d, pri, sec := newPair(t)
	for _, f := range []*Facility{pri, sec} {
		f.SetSyncLatency(10 * time.Microsecond)
	}
	ctx := context.Background()
	ls, err := d.AllocateLockStructure("IRLM", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"SYS1", "SYS2"} {
		if err := ls.Connect(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	const n = 64
	res := func(i int) string { return fmt.Sprintf("R.DB.ACCT.%d", i) }
	for i := 0; i < n; i++ {
		if r, err := ls.ObtainResource(ctx, "SYS1", res(i), "TX1", Exclusive); err != nil || !r.Granted {
			t.Fatalf("ObtainResource(%s) = %+v, %v", res(i), r, err)
		}
	}
	d.FailConnector("SYS1")
	for i := 0; i < n; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := ls.DeleteRecord(ctx, "SYS1", res(i), ""); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := ls.ObtainResource(ctx, "SYS2", res(i), "TX2", Exclusive); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
	p := pri.structureByName("IRLM").(*LockStructure)
	s := sec.structureByName("IRLM").(*LockStructure)
	for idx := 0; idx < p.Entries(); idx++ {
		ps, px, _ := p.Interest(idx, "SYS2")
		ss, sx, _ := s.Interest(idx, "SYS2")
		if ps != ss || px != sx {
			t.Errorf("entry %d: SYS2 interest %d/%d on the primary, %d/%d on the secondary", idx, ps, px, ss, sx)
		}
	}
	for _, c := range []string{"SYS1", "SYS2"} {
		pr, _ := p.Records(ctx, c)
		sr, _ := s.Records(ctx, c)
		if !reflect.DeepEqual(pr, sr) {
			t.Errorf("%s: %d records on the primary, %d on the secondary", c, len(pr), len(sr))
		}
	}
}

func TestDuplexedReadsPrimaryOnly(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateListStructure("WORKQ", 2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Write(context.Background(), "SYS1", 0, "j1", "", []byte("x"), FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ls.ReadFirst(context.Background(), "SYS1", 0, Cond{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := pri.Metrics().Counter("cf.cmd.list.readfirst").Value(); n != 5 {
		t.Fatalf("primary readfirst count = %d, want 5", n)
	}
	if n := sec.Metrics().Counter("cf.cmd.list.readfirst").Value(); n != 0 {
		t.Fatalf("secondary readfirst count = %d, want 0 (reads must not fan out)", n)
	}
	if n := sec.Metrics().Counter("cf.cmd.list.write").Value(); n != 1 {
		t.Fatalf("secondary write count = %d, want 1 mirrored mutation", n)
	}
}

func TestDuplexedInlineFailover(t *testing.T) {
	d, pri, sec := newPair(t)
	var events []DuplexEvent
	var emu sync.Mutex
	d.OnEvent(func(e DuplexEvent) {
		emu.Lock()
		events = append(events, e)
		emu.Unlock()
	})
	cs, err := d.AllocateCacheStructure("GBP0", 64)
	if err != nil {
		t.Fatal(err)
	}
	vec := NewBitVector(64)
	if err := cs.Connect(context.Background(), "SYS1", vec); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteAndInvalidate(context.Background(), "SYS1", "P1", []byte("v1"), true, true, 0); err != nil {
		t.Fatal(err)
	}

	pri.Fail()

	// The next command must succeed transparently via the promoted
	// secondary, with the committed write intact.
	r, err := cs.ReadAndRegister(context.Background(), "SYS1", "P1", 0)
	if err != nil {
		t.Fatalf("command after primary failure: %v", err)
	}
	if !r.Hit || string(r.Data) != "v1" {
		t.Fatalf("data lost across failover: %+v", r)
	}
	if got := d.Primary(); got != sec {
		t.Fatalf("primary after failover = %s, want %s", got.Name(), sec.Name())
	}
	if d.Secondary() != nil {
		t.Fatal("secondary should be empty after promotion")
	}
	if n := d.Metrics().Counter("cfrm.failover.count").Value(); n != 1 {
		t.Fatalf("failover count = %d, want 1", n)
	}
	if n := d.Metrics().Counter("cfrm.cmd.retried").Value(); n < 1 {
		t.Fatalf("retried count = %d, want >= 1", n)
	}
	emu.Lock()
	defer emu.Unlock()
	if len(events) != 1 || events[0].Kind != EventFailover || events[0].Facility != "CF01" {
		t.Fatalf("events = %+v", events)
	}
}

func TestDuplexedFailoverWithoutSecondarySurfacesError(t *testing.T) {
	pri := New("CF01", nil)
	d := NewDuplexed(nil, nil, pri, nil)
	ls, err := d.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	pri.Fail()
	if _, err := ls.Obtain(context.Background(), 0, "SYS1", Share); !errors.Is(err, ErrCFDown) {
		t.Fatalf("err = %v, want ErrCFDown", err)
	}
}

func TestDuplexedSecondaryFailureBreaksDuplex(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	sec.Fail()
	// The mutation succeeds on the primary; the dead secondary is
	// dropped, not surfaced to the caller.
	if _, err := ls.Obtain(context.Background(), 1, "SYS1", Exclusive); err != nil {
		t.Fatalf("Obtain with dead secondary: %v", err)
	}
	if d.Secondary() != nil {
		t.Fatal("dead secondary not dropped")
	}
	if d.Primary() != pri {
		t.Fatal("primary must be unaffected")
	}
	if n := d.Metrics().Counter("cfrm.duplex.broken").Value(); n != 1 {
		t.Fatalf("duplex.broken = %d, want 1", n)
	}
}

func TestDuplexedDivergenceBreaksDuplex(t *testing.T) {
	d, _, sec := newPair(t)
	ls, err := d.AllocateListStructure("Q", 1, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Write(context.Background(), "SYS1", 0, "e1", "", nil, FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the secondary replica out-of-band so the next mirrored
	// command produces a different outcome there.
	raw := sec.structureByName("Q").(*ListStructure)
	if err := raw.Delete(context.Background(), "SYS1", "e1", Cond{}); err != nil {
		t.Fatal(err)
	}
	// Primary deletes cleanly; secondary reports not-found: divergence.
	if err := ls.Delete(context.Background(), "SYS1", "e1", Cond{}); err != nil {
		t.Fatalf("primary outcome must win: %v", err)
	}
	if d.Secondary() != nil {
		t.Fatal("diverged secondary not dropped")
	}
}

func TestDuplexedReduplexCopiesStateAndMirrors(t *testing.T) {
	d, pri, _ := newPair(t)
	cs, err := d.AllocateCacheStructure("GBP0", 64)
	if err != nil {
		t.Fatal(err)
	}
	vec := NewBitVector(64)
	if err := cs.Connect(context.Background(), "SYS1", vec); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteAndInvalidate(context.Background(), "SYS1", "P1", []byte("v1"), true, true, 0); err != nil {
		t.Fatal(err)
	}
	pri.Fail()
	// The next command trips in-line failover to CF02; now simplex.
	if _, err := cs.ReadAndRegister(context.Background(), "SYS1", "P1", 0); err != nil {
		t.Fatal(err)
	}

	third := New("CF03", nil)
	if err := d.Reduplex(third); err != nil {
		t.Fatal(err)
	}
	if d.Secondary() != third {
		t.Fatal("re-duplex did not install CF03")
	}
	names := third.StructureNames()
	if len(names) != 1 || names[0] != "GBP0" {
		t.Fatalf("CF03 structures = %v", names)
	}
	// Copied state is live: a mutation mirrors into CF03 and the copied
	// block is there.
	if err := cs.WriteAndInvalidate(context.Background(), "SYS1", "P2", []byte("v2"), true, true, 1); err != nil {
		t.Fatal(err)
	}
	raw := third.structureByName("GBP0").(*CacheStructure)
	for _, block := range []string{"P1", "P2"} {
		if raw.Version(block) == 0 {
			t.Fatalf("block %s missing from new secondary", block)
		}
	}
}

func TestDuplexedReduplexAllOrNothing(t *testing.T) {
	pri := New("CF01", nil)
	d := NewDuplexed(nil, nil, pri, nil)
	if _, err := d.AllocateLockStructure("IRLM", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocateCacheStructure("GBP0", 64); err != nil {
		t.Fatal(err)
	}
	// Target too small for both structures: the copy fails partway.
	tiny := NewWithStorage("CF02", nil, 64*64+1)
	if err := d.Reduplex(tiny); err == nil {
		t.Fatal("Reduplex into undersized facility must fail")
	}
	if d.Secondary() != nil {
		t.Fatal("failed re-duplex must not install a secondary")
	}
	if d.Primary() != pri {
		t.Fatal("failed re-duplex must leave the primary current")
	}
	// No structure may be left half-mirrored into the abandoned target:
	// a mutation must not touch it, and service must be unaffected.
	ls, err := d.LockStructure("IRLM")
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	if tinyLS := tiny.structureByName("IRLM"); tinyLS != nil {
		if len(tinyLS.(*LockStructure).conns) != 0 {
			t.Fatal("mutation mirrored into abandoned re-duplex target")
		}
	}
	// A later re-duplex into an adequate facility succeeds cleanly.
	if err := d.Reduplex(New("CF03", nil)); err != nil {
		t.Fatal(err)
	}
	if d.State() != "duplexed" {
		t.Fatalf("state = %s", d.State())
	}
}

func TestDuplexedSwitchPrimary(t *testing.T) {
	d, pri, sec := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	old, err := d.SwitchPrimary()
	if err != nil || old != pri {
		t.Fatalf("SwitchPrimary = %v, %v", old, err)
	}
	if d.Primary() != sec || d.Secondary() != nil {
		t.Fatal("roles not switched")
	}
	// Service continues on the promoted facility.
	if _, err := ls.Obtain(context.Background(), 0, "SYS1", Share); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SwitchPrimary(); err == nil {
		t.Fatal("SwitchPrimary while simplex must fail")
	}
}

func TestDuplexedFailAfterInjection(t *testing.T) {
	d, pri, _ := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		t.Fatal(err)
	}
	pri.FailAfter(3)
	// The failure trips mid-stream; every command still succeeds.
	for i := 0; i < 10; i++ {
		if _, err := ls.Obtain(context.Background(), i%8, "SYS1", Share); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !pri.Failed() {
		t.Fatal("injection never tripped")
	}
	if n := d.Metrics().Counter("cfrm.failover.count").Value(); n != 1 {
		t.Fatalf("failover count = %d", n)
	}
}

func TestDuplexedConcurrentCommandsAcrossFailover(t *testing.T) {
	d, pri, _ := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 256)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	for w := 0; w < workers; w++ {
		if err := ls.Connect(context.Background(), fmt.Sprintf("SYS%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			conn := fmt.Sprintf("SYS%d", w)
			for i := 0; i < 300; i++ {
				idx := (w*37 + i) % 256
				if _, err := ls.Obtain(context.Background(), idx, conn, Exclusive); err != nil {
					errs <- fmt.Errorf("%s op %d: %w", conn, i, err)
					return
				}
				if err := ls.Release(context.Background(), idx, conn, Exclusive); err != nil {
					errs <- fmt.Errorf("%s release %d: %w", conn, i, err)
					return
				}
			}
		}()
	}
	close(start)
	pri.FailAfter(500) // trip mid-stream under concurrency
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d.Metrics().Counter("cfrm.failover.count").Value() != 1 {
		t.Fatalf("failover count = %d, want 1",
			d.Metrics().Counter("cfrm.failover.count").Value())
	}
}

// TestCloneFromBrokenFacilityDropsStaleSerialization pins the
// rebuild-from-image semantics for transient serialization state. When
// the source facility is broken, every pass that held a serialized-list
// lock or a cache castout lock has already aborted with ErrCFDown (its
// release failed along with the structure), so the copied image must
// come up with those locks free: a carried-over holder would wedge
// conditional mainline writes — the logr offload lock — or block
// castout of the page forever, and no takeover clears CF-failure locks.
// Entries, directory data, and the changed state itself still copy.
func TestCloneFromBrokenFacilityDropsStaleSerialization(t *testing.T) {
	src := New("CF01", nil)
	if _, err := src.AllocateListStructure("LOG", 2, 1, 100); err != nil {
		t.Fatal(err)
	}
	ls := src.structureByName("LOG").(*ListStructure)
	for _, c := range []string{"SYS1", "SYS2"} {
		if err := ls.Connect(context.Background(), c, NewBitVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Write(context.Background(), "SYS1", 0, "e1", "", []byte("rec"), FIFO, Cond{}); err != nil {
		t.Fatal(err)
	}
	// SYS2's offload pass is mid-flight when the CF dies.
	if err := ls.SetLock(context.Background(), 0, "SYS2"); err != nil {
		t.Fatal(err)
	}

	if _, err := src.AllocateCacheStructure("GBP", 16); err != nil {
		t.Fatal(err)
	}
	cs := src.structureByName("GBP").(*CacheStructure)
	for _, c := range []string{"SYS1", "SYS2"} {
		if err := cs.Connect(context.Background(), c, NewBitVector(16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.WriteAndInvalidate(context.Background(), "SYS1", "P1", []byte("v1"), true, true, 0); err != nil {
		t.Fatal(err)
	}
	// SYS2's castout is mid-flight when the CF dies.
	if _, _, err := cs.CastoutBegin(context.Background(), "SYS2", "P1"); err != nil {
		t.Fatal(err)
	}

	src.Fail()

	dst := New("CF02", nil)
	nlsRaw, err := ls.cloneInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	nls := nlsRaw.(*ListStructure)
	if h := nls.LockHolder(0); h != "" {
		t.Fatalf("stale offload lock survived rebuild: holder %q", h)
	}
	// A conditional mainline write — the logr interim append — must pass
	// against the rebuilt image instead of spinning on ErrLockHeld.
	cond := Cond{Use: true, LockIndex: 0}
	if err := nls.Write(context.Background(), "SYS1", 0, "e2", "", []byte("rec2"), FIFO, cond); err != nil {
		t.Fatalf("conditional write against rebuilt image: %v", err)
	}
	if got := nls.Len(0); got != 2 {
		t.Fatalf("rebuilt list entries = %d, want 2 (copied + new)", got)
	}

	ncsRaw, err := cs.cloneInto(dst)
	if err != nil {
		t.Fatal(err)
	}
	ncs := ncsRaw.(*CacheStructure)
	if blocks := ncs.ChangedBlocks(); len(blocks) != 1 || blocks[0] != "P1" {
		t.Fatalf("rebuilt changed blocks = %v, want [P1]", blocks)
	}
	if _, _, err := ncs.CastoutBegin(context.Background(), "SYS1", "P1"); err != nil {
		t.Fatalf("castout against rebuilt image: %v", err)
	}

	// A healthy-source copy (duplex establishment, planned rebuild)
	// preserves holders: the holding pass is live and releases through
	// the front.
	dst2 := New("CF03", nil)
	src.broken.Store(false) // revive for the healthy-copy leg
	nls2Raw, err := ls.cloneInto(dst2)
	if err != nil {
		t.Fatal(err)
	}
	if h := nls2Raw.(*ListStructure).LockHolder(0); h != "SYS2" {
		t.Fatalf("healthy-source copy lost the live holder: %q", h)
	}
}

// TestDuplexedCommandAllocs holds the pipeline to its promise that a
// command adds no heap allocation over applying it directly: the
// descriptor and reply travel by value through Exec, and no ordering
// key is built. The bounds are what the closure-per-command pipeline
// this one replaced allocated (BenchmarkFig2_DuplexedLockObtainParallel,
// BenchmarkFig2_DuplexedCacheReadParallel with -benchmem): one
// allocation per Obtain+Release pair, and for a cache read only the
// two copies of the block data, one per replica.
func TestDuplexedCommandAllocs(t *testing.T) {
	ctx := context.Background()
	d, _, _ := newPair(t)
	ls, err := d.AllocateLockStructure("IRLM", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(ctx, "SYS1"); err != nil {
		t.Fatal(err)
	}
	i := 0
	pair := testing.AllocsPerRun(2000, func() {
		i++
		if r, err := ls.Obtain(ctx, i%4096, "SYS1", Exclusive); err != nil || !r.Granted {
			t.Fatalf("Obtain = %+v, %v", r, err)
		}
		if err := ls.Release(ctx, i%4096, "SYS1", Exclusive); err != nil {
			t.Fatal(err)
		}
	})
	if pair > 1 {
		t.Errorf("duplexed Obtain+Release: %.1f allocs, want <= 1", pair)
	}

	cs, err := d.AllocateCacheStructure("GBP0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Connect(ctx, "SYS1", NewBitVector(1024)); err != nil {
		t.Fatal(err)
	}
	pages := make([]string, 512)
	for p := range pages {
		pages[p] = fmt.Sprintf("PAGE%03d", p)
		if err := cs.WriteAndInvalidate(ctx, "SYS1", pages[p], []byte("data"), true, false, p); err != nil {
			t.Fatal(err)
		}
	}
	read := testing.AllocsPerRun(2000, func() {
		i++
		if r, err := cs.ReadAndRegister(ctx, "SYS1", pages[i%512], i%1024); err != nil || !r.Hit {
			t.Fatalf("ReadAndRegister = %+v, %v", r, err)
		}
	})
	if read > 2 {
		t.Errorf("duplexed ReadAndRegister: %.1f allocs, want <= 2", read)
	}
}
