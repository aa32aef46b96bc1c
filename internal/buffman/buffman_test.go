package buffman

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/vclock"
)

// fakeDASD is a shared page backing store with access counters.
type fakeDASD struct {
	mu     sync.Mutex
	pages  map[string][]byte
	reads  int
	writes int
}

func newFakeDASD() *fakeDASD { return &fakeDASD{pages: map[string][]byte{}} }

func (d *fakeDASD) reader() PageReader {
	return func(name string) ([]byte, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.reads++
		return append([]byte(nil), d.pages[name]...), nil
	}
}

func (d *fakeDASD) writer() PageWriter {
	return func(name string, data []byte) error {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.writes++
		d.pages[name] = append([]byte(nil), data...)
		return nil
	}
}

func (d *fakeDASD) get(name string) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.pages[name]...)
}

type bmFixture struct {
	cs    cf.Cache
	dasd  *fakeDASD
	pools map[string]*Pool
}

func newBMFixture(t *testing.T, frames int, systems ...string) *bmFixture {
	t.Helper()
	return newBMFixtureOn(t, cf.New("CF01", vclock.Real()), frames, systems...)
}

// newBMFixtureOn allocates the group buffer pool through front.
func newBMFixtureOn(t *testing.T, front cf.Front, frames int, systems ...string) *bmFixture {
	t.Helper()
	cs, err := front.AllocateCacheStructure("GBP0", 256)
	if err != nil {
		t.Fatal(err)
	}
	fx := &bmFixture{cs: cs, dasd: newFakeDASD(), pools: map[string]*Pool{}}
	for _, s := range systems {
		p, err := NewPool(context.Background(), s, cs, frames, fx.dasd.reader(), fx.dasd.writer())
		if err != nil {
			t.Fatal(err)
		}
		fx.pools[s] = p
	}
	return fx
}

func TestReadMissThenLocalHit(t *testing.T) {
	fx := newBMFixture(t, 8, "SYS1")
	fx.dasd.pages["P1"] = []byte("on disk")
	p := fx.pools["SYS1"]
	got, err := p.GetPage(context.Background(), "P1")
	if err != nil || !bytes.Equal(got, []byte("on disk")) {
		t.Fatalf("got %q err=%v", got, err)
	}
	// Second read: pure local hit, no CF or DASD access.
	p.GetPage(context.Background(), "P1")
	st := p.Stats()
	if st.DasdReads != 1 || st.LocalHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if fx.dasd.reads != 1 {
		t.Fatalf("dasd reads = %d", fx.dasd.reads)
	}
}

func TestWriteInvalidatesPeerAndRefreshesFromGlobalCache(t *testing.T) {
	fx := newBMFixture(t, 8, "SYS1", "SYS2")
	fx.dasd.pages["P"] = []byte("v0")
	p1, p2 := fx.pools["SYS1"], fx.pools["SYS2"]
	p1.GetPage(context.Background(), "P")
	p2.GetPage(context.Background(), "P")

	// SYS2 commits an update.
	if err := p2.WritePage(context.Background(), "P", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// SYS1's next read detects the invalid bit and refreshes from the
	// CF global cache — not from DASD.
	before := fx.dasd.reads
	got, err := p1.GetPage(context.Background(), "P")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("got %q err=%v", got, err)
	}
	st := p1.Stats()
	if st.Invalidated != 1 || st.GlobalHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if fx.dasd.reads != before {
		t.Fatal("refresh went to DASD instead of the global cache")
	}
	// The writer's own copy stays valid: local hit.
	p2.GetPage(context.Background(), "P")
	if st := p2.Stats(); st.LocalHits != 1 {
		t.Fatalf("writer stats = %+v", st)
	}
}

func TestStoreInCommitDoesNotTouchDASD(t *testing.T) {
	fx := newBMFixture(t, 8, "SYS1")
	p := fx.pools["SYS1"]
	if err := p.WritePage(context.Background(), "P", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if fx.dasd.writes != 0 {
		t.Fatal("commit wrote to DASD; store-in semantics violated")
	}
	// The data is nonetheless durable in the group buffer pool.
	if got := fx.dasd.get("P"); len(got) != 0 {
		t.Fatal("DASD mysteriously updated")
	}
}

func TestCastoutWritesDASDAndClearsChanged(t *testing.T) {
	fx := newBMFixture(t, 8, "SYS1", "SYS2")
	p1 := fx.pools["SYS1"]
	p1.WritePage(context.Background(), "A", []byte("a1"))
	p1.WritePage(context.Background(), "B", []byte("b1"))
	// Castout can run on a different system than the writer.
	n, err := fx.pools["SYS2"].CastoutOnce(context.Background(), 0)
	if err != nil || n != 2 {
		t.Fatalf("castout n=%d err=%v", n, err)
	}
	if !bytes.Equal(fx.dasd.get("A"), []byte("a1")) || !bytes.Equal(fx.dasd.get("B"), []byte("b1")) {
		t.Fatal("castout data wrong on DASD")
	}
	if len(fx.cs.ChangedBlocks()) != 0 {
		t.Fatal("blocks still marked changed")
	}
	// Nothing left: another castout is a no-op.
	if n, _ := fx.pools["SYS2"].CastoutOnce(context.Background(), 0); n != 0 {
		t.Fatalf("second castout n=%d", n)
	}
}

func TestCastoutMaxLimit(t *testing.T) {
	fx := newBMFixture(t, 8, "SYS1")
	p := fx.pools["SYS1"]
	for i := 0; i < 5; i++ {
		p.WritePage(context.Background(), fmt.Sprintf("P%d", i), []byte("x"))
	}
	n, err := p.CastoutOnce(context.Background(), 2)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if got := len(fx.cs.ChangedBlocks()); got != 3 {
		t.Fatalf("remaining changed = %d", got)
	}
}

func TestEvictionLRU(t *testing.T) {
	fx := newBMFixture(t, 2, "SYS1")
	fx.dasd.pages["A"] = []byte("a")
	fx.dasd.pages["B"] = []byte("b")
	fx.dasd.pages["C"] = []byte("c")
	p := fx.pools["SYS1"]
	p.GetPage(context.Background(), "A")
	p.GetPage(context.Background(), "B")
	p.GetPage(context.Background(), "A") // A is now more recent than B
	p.GetPage(context.Background(), "C") // evicts B
	st := p.Stats()
	if st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// B is gone from the directory registration of SYS1.
	regs := fx.cs.Registered("B")
	if len(regs) != 0 {
		t.Fatalf("B still registered by %v", regs)
	}
	// A survived: local hit.
	before := p.Stats().LocalHits
	p.GetPage(context.Background(), "A")
	if p.Stats().LocalHits != before+1 {
		t.Fatal("A was evicted instead of B")
	}
}

func TestInvalidateDropsLocalOnly(t *testing.T) {
	fx := newBMFixture(t, 4, "SYS1", "SYS2")
	fx.dasd.pages["P"] = []byte("v")
	fx.pools["SYS1"].GetPage(context.Background(), "P")
	fx.pools["SYS2"].GetPage(context.Background(), "P")
	fx.pools["SYS1"].Invalidate(context.Background(), "P")
	if regs := fx.cs.Registered("P"); len(regs) != 1 || regs[0] != "SYS2" {
		t.Fatalf("regs = %v", regs)
	}
}

func TestClosedPool(t *testing.T) {
	fx := newBMFixture(t, 4, "SYS1")
	p := fx.pools["SYS1"]
	p.Close()
	if _, err := p.GetPage(context.Background(), "P"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := p.WritePage(context.Background(), "P", nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDasdReadErrorPropagates(t *testing.T) {
	fac := cf.New("CF", vclock.Real())
	cs, _ := fac.AllocateCacheStructure("C", 16)
	boom := errors.New("io error")
	p, err := NewPool(context.Background(), "SYS1", cs, 4,
		func(string) ([]byte, error) { return nil, boom },
		func(string, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetPage(context.Background(), "P"); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failed read did not leave a registration behind.
	if regs := cs.Registered("P"); len(regs) != 0 {
		t.Fatalf("regs = %v", regs)
	}
}

func TestPoolValidation(t *testing.T) {
	fac := cf.New("CF", vclock.Real())
	cs, _ := fac.AllocateCacheStructure("C", 16)
	if _, err := NewPool(context.Background(), "S", cs, 0, nil, nil); err == nil {
		t.Fatal("zero frames accepted")
	}
}

// Property: with random interleaved writes and reads across three
// systems, every read observes the value of the most recent write to
// that page (single-writer-at-a-time discipline, as the lock manager
// would enforce).
func TestCoherentReadsProperty(t *testing.T) {
	systems := []string{"SYS1", "SYS2", "SYS3"}
	type op struct {
		Sys   uint8
		Page  uint8
		Write bool
		Val   uint16
	}
	f := func(ops []op) bool {
		fx := newBMFixture(t, 4, systems...)
		latest := map[string][]byte{}
		for _, o := range ops {
			sys := systems[int(o.Sys)%len(systems)]
			page := fmt.Sprintf("P%d", o.Page%6)
			pool := fx.pools[sys]
			if o.Write {
				val := []byte(fmt.Sprintf("%d", o.Val))
				if err := pool.WritePage(context.Background(), page, val); err != nil {
					return false
				}
				latest[page] = val
			} else {
				got, err := pool.GetPage(context.Background(), page)
				if err != nil {
					return false
				}
				want := latest[page]
				if want == nil {
					want = []byte{}
				}
				if !bytes.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildKeepsCrossInvalidation(t *testing.T) {
	cfres, err := cfrm.New(cfrm.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx := newBMFixtureOn(t, cfres.Front(), 8, "SYS1", "SYS2")
	fx.dasd.pages["P"] = []byte("v0")
	p1, p2 := fx.pools["SYS1"], fx.pools["SYS2"]
	p1.GetPage(context.Background(), "P")
	p2.WritePage(context.Background(), "P", []byte("v1"))
	got, err := p1.GetPage(context.Background(), "P")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("got %q err=%v", got, err)
	}
	// Rebuild the group buffer pool into a fresh facility and retire the
	// old one; SYS1 keeps its cached copy of P.
	old := cfres.Primary()
	if err := cfres.Rebuild(); err != nil {
		t.Fatal(err)
	}
	old.Fail()
	got, err = p1.GetPage(context.Background(), "P")
	if err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("got %q err=%v", got, err)
	}
	// SYS2's write on the new structure cross-invalidates that copy.
	if err := p2.WritePage(context.Background(), "P", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err = p1.GetPage(context.Background(), "P")
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("coherency broken after rebuild: %q err=%v", got, err)
	}
	if regs := cf.CacheOn(cfres.Primary().Structure("GBP0")).Registered("P"); len(regs) != 2 {
		t.Fatalf("registered = %v", regs)
	}
}
