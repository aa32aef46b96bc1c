package logr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/dasd"
	"sysplex/internal/timer"
	"sysplex/internal/vclock"
)

type fixture struct {
	cfres *cfrm.Manager
	farm  *dasd.Farm
	tmr   *timer.Timer
	mgrs  map[string]*Manager
}

func newFixture(t testing.TB, mode cfrm.Mode, systems ...string) *fixture {
	t.Helper()
	clock := vclock.Real()
	cfres, err := cfrm.New(cfrm.Policy{Mode: mode}, clock)
	if err != nil {
		t.Fatal(err)
	}
	farm := dasd.NewFarm(clock)
	if _, err := farm.AddVolume("LOGV", 65536, 2); err != nil {
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

func (fx *fixture) connect(t *testing.T, spec StreamSpec) map[string]*Stream {
	t.Helper()
	out := map[string]*Stream{}
	for sys, m := range fx.mgrs {
		s, err := m.Connect(context.Background(), spec)
		if err != nil {
			t.Fatalf("connect %s: %v", sys, err)
		}
		out[sys] = s
	}
	return out
}

// assertExactlyOnce browses the stream and checks that the payload set
// equals want, with no duplicates, in strictly increasing key order.
func assertExactlyOnce(t *testing.T, s *Stream, want map[string]bool) {
	t.Helper()
	cur, err := s.Browse(context.Background())
	if err != nil {
		t.Fatalf("browse: %v", err)
	}
	seen := map[string]bool{}
	prev := ""
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if r.Key <= prev {
			t.Fatalf("browse order violated: %q after %q", r.Key, prev)
		}
		prev = r.Key
		p := string(r.Data)
		if seen[p] {
			t.Fatalf("duplicate record %q", p)
		}
		seen[p] = true
	}
	for p := range want {
		if !seen[p] {
			t.Fatalf("lost record %q (browsed %d of %d)", p, len(seen), len(want))
		}
	}
	for p := range seen {
		if !want[p] {
			t.Fatalf("phantom record %q", p)
		}
	}
}

func TestWriteBrowseMergedOrder(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2", "SYS3")
	streams := fx.connect(t, StreamSpec{Name: "MERGE"})
	want := map[string]bool{}
	// Interleave writers round-robin: the merged stream must order by
	// sysplex stamp regardless of writing system.
	order := []string{"SYS1", "SYS2", "SYS3"}
	var lastKey string
	for i := 0; i < 60; i++ {
		sys := order[i%3]
		p := fmt.Sprintf("%s-rec%03d", sys, i)
		r, err := streams[sys].Write(context.Background(), []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if r.Key <= lastKey {
			t.Fatalf("stamps not strictly increasing: %q then %q", lastKey, r.Key)
		}
		lastKey = r.Key
		want[p] = true
	}
	for _, sys := range order {
		assertExactlyOnce(t, streams[sys], want)
	}
}

func TestOffloadThresholdsAndSeamlessBrowse(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1")
	s := fx.connect(t, StreamSpec{Name: "OFF", InterimEntries: 40, HighOffloadPct: 75, LowOffloadPct: 25, OffloadBlocks: 16})["SYS1"]
	want := map[string]bool{}
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("rec%04d", i)
		if _, err := s.Write(context.Background(), []byte(p)); err != nil {
			t.Fatal(err)
		}
		want[p] = true
	}
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Offloaded == 0 {
		t.Fatal("no records offloaded despite crossing the high mark")
	}
	if st.Interim >= 40 {
		t.Fatalf("interim not drained: %d", st.Interim)
	}
	// The browse must cross the offloaded/interim boundary seamlessly.
	assertExactlyOnce(t, s, want)
	m := fx.mgrs["SYS1"].Metrics()
	if m.Counter("logr.offload.count").Value() == 0 || m.Counter("logr.offload.bytes").Value() == 0 {
		t.Fatal("offload metrics not recorded")
	}
	if m.Histogram("logr.write.latency").Count() != 200 {
		t.Fatalf("write latency observations = %d", m.Histogram("logr.write.latency").Count())
	}
}

func TestOffloadChainsAcrossDatasets(t *testing.T) {
	fx := newFixture(t, cfrm.ModeSimplex, "SYS1")
	s := fx.connect(t, StreamSpec{Name: "CHAIN", InterimEntries: 16, OffloadBlocks: 8})["SYS1"]
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("c%04d", i)
		if _, err := s.Write(context.Background(), []byte(p)); err != nil {
			t.Fatal(err)
		}
		want[p] = true
	}
	c, err := s.readFrontier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.NextDataset == 0 {
		t.Fatalf("offload never chained to a second dataset: %+v", c)
	}
	assertExactlyOnce(t, s, want)
}

// TestMaxRecordOffloads writes records of sizes up to MaxRecord from a
// system with an eight-character name, across offload passes whose
// blocks cross dataset boundaries mid-pass, and browses every one back
// exactly once. A MaxRecord payload's envelope used to outgrow a block:
// the record was acknowledged from interim storage, and every later pass
// failed on it. A longer system name is refused before interim storage.
func TestMaxRecordOffloads(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t, cfrm.ModeSimplex, "SYSNAME8", "SYSTEMNAME12")
	streams := fx.connect(t, StreamSpec{Name: "BIG", InterimEntries: 40, OffloadBlocks: 8})
	s, long := streams["SYSNAME8"], streams["SYSTEMNAME12"]
	want := map[string]bool{}
	sizes := []int{MaxRecord, 4, MaxRecord / 2, 700, MaxRecord - 1}
	for i := 0; i < 120; i++ {
		p := append([]byte(fmt.Sprintf("%04d", i)), bytes.Repeat([]byte{'x'}, sizes[i%len(sizes)]-4)...)
		if _, err := s.Write(ctx, p); err != nil {
			t.Fatalf("write %d (%d bytes): %v", i, len(p), err)
		}
		want[string(p)] = true
	}
	if n := fx.mgrs["SYSNAME8"].Metrics().Counter("logr.offload.count").Value(); n < 3 {
		t.Fatalf("%d offload passes, want at least 3", n)
	}
	if c, err := s.readFrontier(ctx); err != nil || c.NextDataset < 2 {
		t.Fatalf("frontier %+v (%v): want a chain of three datasets or more", c, err)
	}
	assertExactlyOnce(t, s, want)

	before := long.InterimLen()
	if _, err := long.Write(ctx, make([]byte, MaxRecord)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("MaxRecord from a twelve-character system name: %v, want ErrRecordTooBig", err)
	}
	if long.InterimLen() != before {
		t.Fatal("a refused record reached interim storage")
	}
}

// TestOffloadBlockLayout: the offload block codec round-trips up to a
// frontier key, and a block in another layout — the one-record JSON
// blocks earlier builds wrote, or a length that overruns the block —
// fails Browse by name.
func TestOffloadBlockLayout(t *testing.T) {
	ctx := context.Background()
	var blk []byte
	var keys []string
	for i := 0; i < 3; i++ {
		keys = append(keys, keyFor(time.Unix(1700000000+int64(i), 0)))
		env := fmt.Sprintf(`{"k":%q,"s":"SYS1","t":%d,"d":"eA=="}`, keys[i], i)
		blk = packEnvelope(blk, []byte(env))
	}
	for upTo := 0; upTo < 3; upTo++ {
		recs, err := unpackBlock(nil, blk, keys[upTo])
		if err != nil || len(recs) != upTo+1 || recs[upTo].Key != keys[upTo] || string(recs[0].Data) != "x" {
			t.Fatalf("unpack up to key %d: %+v, %v", upTo, recs, err)
		}
	}

	fx := newFixture(t, cfrm.ModeSimplex, "SYS1")
	s := fx.connect(t, StreamSpec{Name: "LAYOUT", InterimEntries: 16})["SYS1"]
	for i := 0; i < 10; i++ {
		if _, err := s.Write(ctx, []byte(fmt.Sprintf("r%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Offload(ctx); err != nil {
		t.Fatal(err)
	}
	ds, err := s.offloadDataset(0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := ds.Read("SYS1", 0)
	if err != nil {
		t.Fatal(err)
	}
	overrun := append([]byte(nil), good...)
	overrun[blockHeader], overrun[blockHeader+1] = 0xff, 0xff
	old := fmt.Sprintf(`{"k":%q,"s":"SYS1","t":1,"d":"eA=="}`, keys[0])
	for name, raw := range map[string][]byte{"one-record JSON": []byte(old), "overrun": overrun} {
		if err := ds.Write("SYS1", 0, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Browse(ctx); !errors.Is(err, ErrBlockLayout) {
			t.Fatalf("browse over a %s block: %v, want ErrBlockLayout", name, err)
		}
	}
}

func TestSpecRecordedAndAdopted(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2")
	a, err := fx.mgrs["SYS1"].Connect(context.Background(), StreamSpec{Name: "ADOPT", InterimEntries: 64, HighOffloadPct: 50, LowOffloadPct: 10})
	if err != nil {
		t.Fatal(err)
	}
	// SYS2 asks for different parameters; the recorded spec wins.
	b, err := fx.mgrs["SYS2"].Connect(context.Background(), StreamSpec{Name: "ADOPT", InterimEntries: 9999, HighOffloadPct: 99, LowOffloadPct: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec() != a.Spec() {
		t.Fatalf("spec not adopted: %+v vs %+v", b.Spec(), a.Spec())
	}
}

func TestValidation(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1")
	if _, err := fx.mgrs["SYS1"].Connect(context.Background(), StreamSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := fx.mgrs["SYS1"].Connect(context.Background(), StreamSpec{Name: "X", HighOffloadPct: 20, LowOffloadPct: 80}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("inverted thresholds: %v", err)
	}
	s, err := fx.mgrs["SYS1"].Connect(context.Background(), StreamSpec{Name: "OKAY"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(context.Background(), make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("oversized record: %v", err)
	}
	if _, err := fx.mgrs["SYS1"].Stream("NOPE"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("unknown stream: %v", err)
	}
}

// TestCFFailoverNoLoss kills the primary CF mid-command-stream with
// FailAfter while writers on three systems hammer the stream. With
// duplexing, the in-line failover must lose nothing.
func TestCFFailoverNoLoss(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2", "SYS3")
	streams := fx.connect(t, StreamSpec{Name: "KILL", InterimEntries: 64, OffloadBlocks: 32})
	var mu sync.Mutex
	want := map[string]bool{}
	var wg sync.WaitGroup
	fx.cfres.Primary().FailAfter(500)
	for sys, s := range streams {
		sys, s := sys, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := fmt.Sprintf("%s-%04d", sys, i)
				if _, err := s.Write(context.Background(), []byte(p)); err != nil {
					t.Errorf("%s write %d: %v", sys, i, err)
					return
				}
				mu.Lock()
				want[p] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if fx.cfres.Status().Failovers == 0 {
		t.Fatal("primary CF never failed over — FailAfter too high for the load")
	}
	assertExactlyOnce(t, streams["SYS1"], want)
}

// TestPeerTakeoverMidOffload kills the writer at each crash point of
// the offload protocol and has a survivor complete the offload; no
// record may be lost or duplicated at any of them. (The dead system's
// offload lock is cleared by CF connector-failure processing, exactly
// as the sysplex does it.)
func TestPeerTakeoverMidOffload(t *testing.T) {
	for _, stage := range []string{"dasd-written", "pending-written", "ctl-updated"} {
		t.Run(stage, func(t *testing.T) {
			fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2")
			streams := fx.connect(t, StreamSpec{Name: "TAKE", InterimEntries: 32, OffloadBlocks: 16})
			w, peer := streams["SYS1"], streams["SYS2"]
			want := map[string]bool{}
			for i := 0; i < 20; i++ {
				p := fmt.Sprintf("pre%03d", i)
				if _, err := w.Write(context.Background(), []byte(p)); err != nil {
					t.Fatal(err)
				}
				want[p] = true
			}
			// SYS1 dies inside the offload at the given stage, lock held.
			w.testCrash = func(got string) bool { return got == stage }
			if _, err := w.Offload(context.Background()); err == nil {
				t.Fatal("simulated crash did not surface")
			}
			if holder := w.list.LockHolder(lockOffload); holder != "SYS1" {
				t.Fatalf("offload lock holder = %q, want the dead writer", holder)
			}
			// Sysplex failure processing: CF purges the failed connector
			// (freeing its lock entries), then a survivor takes over.
			fx.cfres.Front().FailConnector("SYS1")
			fx.mgrs["SYS2"].TakeoverFailed(context.Background(), "SYS1")
			if holder := peer.list.LockHolder(lockOffload); holder != "" {
				t.Fatalf("offload lock still held by %q after takeover", holder)
			}
			// Survivor keeps writing; the stream is fully serviceable.
			for i := 0; i < 40; i++ {
				p := fmt.Sprintf("post%03d", i)
				if _, err := peer.Write(context.Background(), []byte(p)); err != nil {
					t.Fatal(err)
				}
				want[p] = true
			}
			assertExactlyOnce(t, peer, want)
		})
	}
}

// TestConcurrentWritersWithOffloadsAndBrowse is the race-detector
// workout: writers on every system, forced offloads, and browses all
// running concurrently.
func TestConcurrentWritersWithOffloadsAndBrowse(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2", "SYS3")
	streams := fx.connect(t, StreamSpec{Name: "RACE", InterimEntries: 48, OffloadBlocks: 32})
	var mu sync.Mutex
	want := map[string]bool{}
	var wg sync.WaitGroup
	for sys, s := range streams {
		sys, s := sys, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("%s#%04d", sys, i)
				if _, err := s.Write(context.Background(), []byte(p)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				mu.Lock()
				want[p] = true
				mu.Unlock()
				if i%50 == 25 {
					if _, err := s.Browse(context.Background()); err != nil {
						t.Errorf("browse: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	assertExactlyOnce(t, streams["SYS2"], want)
}

// quickScript drives the property test: a deterministic schedule of
// interleaved writes, forced offloads, and one CF failover.
type quickScript struct {
	Seed     int64
	Writes   uint16
	KillAt   uint16
	Systems  uint8
	OffEvery uint8
}

// Generate keeps the script within a tractable envelope.
func (quickScript) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickScript{
		Seed:     r.Int63(),
		Writes:   uint16(40 + r.Intn(160)),
		KillAt:   uint16(r.Intn(200)),
		Systems:  uint8(1 + r.Intn(3)),
		OffEvery: uint8(5 + r.Intn(30)),
	})
}

// TestBrowseExactlyOnceProperty: for arbitrary interleavings of writes
// across systems, forced offloads, and a CF failover at an arbitrary
// point, a browse returns every written record exactly once in
// timestamp order.
func TestBrowseExactlyOnceProperty(t *testing.T) {
	prop := func(sc quickScript) bool {
		rng := rand.New(rand.NewSource(sc.Seed))
		systems := []string{"SYS1", "SYS2", "SYS3"}[:sc.Systems]
		fxt := newFixture(t, cfrm.ModeDuplexed, systems...)
		streams := fxt.connect(t, StreamSpec{Name: "PROP", InterimEntries: 24, OffloadBlocks: 16})
		want := map[string]bool{}
		killed := false
		for i := 0; i < int(sc.Writes); i++ {
			if !killed && i == int(sc.KillAt) {
				// Unplanned CF failure: report it mid-stream; the
				// duplexed front fails over in-line.
				fxt.cfres.ReportFailure(fxt.cfres.Primary().Name())
				killed = true
			}
			sys := systems[rng.Intn(len(systems))]
			p := fmt.Sprintf("%s/%05d", sys, i)
			if _, err := streams[sys].Write(context.Background(), []byte(p)); err != nil {
				t.Logf("write: %v", err)
				return false
			}
			want[p] = true
			if sc.OffEvery > 0 && i%int(sc.OffEvery) == int(sc.OffEvery)-1 {
				if _, err := streams[sys].Offload(context.Background()); err != nil && !errors.Is(err, cf.ErrLockHeld) {
					t.Logf("offload: %v", err)
					return false
				}
			}
		}
		cur, err := streams[systems[0]].Browse(context.Background())
		if err != nil {
			t.Logf("browse: %v", err)
			return false
		}
		seen := map[string]bool{}
		prev := ""
		for {
			r, ok := cur.Next()
			if !ok {
				break
			}
			if r.Key <= prev || seen[string(r.Data)] {
				return false
			}
			prev = r.Key
			seen[string(r.Data)] = true
		}
		if len(seen) != len(want) {
			t.Logf("browsed %d of %d", len(seen), len(want))
			return false
		}
		for p := range want {
			if !seen[p] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBrowseSnapshotStableUnderConcurrentOffload pins the lock-guarded
// snapshot semantics: a browse taken while offloads churn still sees a
// consistent exactly-once view.
func TestBrowseSnapshotStableUnderConcurrentOffload(t *testing.T) {
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2")
	streams := fx.connect(t, StreamSpec{Name: "SNAP", InterimEntries: 32, OffloadBlocks: 16})
	want := map[string]bool{}
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("s%03d", i)
		if _, err := streams["SYS1"].Write(context.Background(), []byte(p)); err != nil {
			t.Fatal(err)
		}
		want[p] = true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			streams["SYS2"].Offload(context.Background())
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for i := 0; i < 10; i++ {
		assertExactlyOnce(t, streams["SYS1"], want)
	}
	<-done
	assertExactlyOnce(t, streams["SYS2"], want)
}

// TestStrandedWriteRetractsAndRestamps drives the race the post-write
// frontier check exists for: a record stamped before, and stored after,
// a peer's committed offload pass lands below the frontier, where no
// browse would ever show it. The writer must take it back, re-stamp it
// above the frontier and acknowledge it once.
func TestStrandedWriteRetractsAndRestamps(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2")
	streams := fx.connect(t, StreamSpec{Name: "STRAND", InterimEntries: 32, OffloadBlocks: 16})
	w, peer := streams["SYS1"], streams["SYS2"]
	want := map[string]bool{}
	write := func(s *Stream, p string) Record {
		t.Helper()
		r, err := s.Write(ctx, []byte(p))
		if err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		want[p] = true
		return r
	}
	for i := 0; i < 5; i++ {
		write(w, fmt.Sprintf("pre%02d", i))
	}
	var stamped []string
	w.testStamped = func(key string) {
		stamped = append(stamped, key)
		if len(stamped) > 1 {
			return
		}
		// Between the writer's stamp and its interim write the peer logs
		// newer records and commits a pass that offloads some of them:
		// the frontier is now above the writer's stamp.
		for i := 0; i < 20; i++ {
			write(peer, fmt.Sprintf("peer%02d", i))
		}
		if n, err := peer.Offload(ctx); err != nil || n == 0 {
			t.Fatalf("peer offload moved %d records: %v", n, err)
		}
	}
	rec := write(w, "stranded")
	w.testStamped = nil

	c, err := w.readFrontier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamped) != 2 {
		t.Fatalf("record stamped %d times, want 2 (one retract, one re-stamp): %v", len(stamped), stamped)
	}
	if stamped[0] > c.HighKey {
		t.Fatalf("first stamp %s is above the frontier %s: the race was not set up", stamped[0], c.HighKey)
	}
	if rec.Key != stamped[1] || rec.Key <= c.HighKey {
		t.Fatalf("acknowledged key %s, want the re-stamp %s above the frontier %s", rec.Key, stamped[1], c.HighKey)
	}
	if _, err := w.list.Read(ctx, "SYS1", stamped[0], cf.Cond{}); !errors.Is(err, cf.ErrEntryNotFound) {
		t.Fatalf("stranded entry %s not retracted: %v", stamped[0], err)
	}
	if got := fx.mgrs["SYS1"].Metrics().Counter("logr.write.count").Value(); got != 6 {
		t.Fatalf("SYS1 acknowledged %d writes, want 6", got)
	}
	assertExactlyOnce(t, w, want)
	assertExactlyOnce(t, peer, want)
}

// TestOldCTLImageRefused: a CTL entry in another layout — the JSON image
// earlier builds wrote — fails the connect and the write's frontier
// check by name. Reading it as "no frontier yet" would put new records
// in front of an offload chain nobody browses any more.
func TestOldCTLImageRefused(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1", "SYS2")
	s, err := fx.mgrs["SYS1"].Connect(ctx, StreamSpec{Name: "OLD"})
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"high":"01700000000000000000","ds":0,"blk":5,"n":5,"pend":["01700000000000000000"]}`)
	if err := s.list.Write(ctx, "SYS1", listControl, "CTL", "CTL", old, cf.FIFO, cf.Cond{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.mgrs["SYS2"].Connect(ctx, StreamSpec{Name: "OLD"}); !errors.Is(err, ErrCTLLayout) {
		t.Fatalf("connect over a JSON CTL: %v, want ErrCTLLayout", err)
	}
	if _, err := s.Write(ctx, []byte("x")); !errors.Is(err, ErrCTLLayout) {
		t.Fatalf("write over a JSON CTL: %v, want ErrCTLLayout", err)
	}
	good := frontier{HighKey: keyFor(time.Unix(1700000000, 0)), NextDataset: 3, NextBlock: 7, Offloaded: 1543}
	if got, err := decodeFrontier(good.encode()); err != nil || got != good {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	next := good.encode()
	next[0]++
	if _, err := decodeFrontier(next); !errors.Is(err, ErrCTLLayout) {
		t.Fatalf("layout byte %d accepted: %v", next[0], err)
	}
}

// pendingStream connects a default-spec stream on SYS1 and runs one
// offload pass of exactly n records on it, which leaves their n entry
// IDs in the pending set; n = 0 leaves the stream as connected, with no
// pass committed and no CTL entry. 205 is the size of a threshold pass
// (512 entries, 70% down to 30%). At least 150 further writes fit below
// the next pass either way.
func pendingStream(tb testing.TB, fx *fixture, name string, n int) *Stream {
	tb.Helper()
	ctx := context.Background()
	s, err := fx.mgrs["SYS1"].Connect(ctx, StreamSpec{Name: name})
	if err != nil {
		tb.Fatal(err)
	}
	if n == 0 {
		return s
	}
	for i := 0; i < s.lowMark()+n; i++ {
		if _, err := s.Write(ctx, writePayload); err != nil {
			tb.Fatal(err)
		}
	}
	// A no-op when the last write crossed the high mark and ran the pass.
	if _, err := s.Offload(ctx); err != nil {
		tb.Fatal(err)
	}
	if ids, err := s.readPending(ctx); err != nil || len(ids) != n {
		tb.Fatalf("pending set has %d IDs (%v), want %d", len(ids), err, n)
	}
	return s
}

// writePayload is the size of a db update record, near enough.
var writePayload = make([]byte, 64)

// TestWriteAllocsIndependentOfPending guards the mainline write against
// reading the offload pass's leftovers again: what a write allocates may
// not depend on how many IDs the pending set holds, and stays under a
// fixed ceiling (the write that decoded 205 of them allocated ~19 KB).
// A stream with no pass committed yet is held to the ceiling only: its
// frontier read comes back "entry not found", an error the CF allocates.
func TestWriteAllocsIndependentOfPending(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	ctx := context.Background()
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1")
	const ceiling = 2048
	allocs := map[int]float64{}
	for _, pending := range []int{0, 1, 205} {
		s := pendingStream(t, fx, fmt.Sprintf("ALLOC.%d", pending), pending)
		write := func() {
			if _, err := s.Write(ctx, writePayload); err != nil {
				t.Fatal(err)
			}
		}
		allocs[pending] = testing.AllocsPerRun(50, write)
		const n = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%3d pending: %v allocs, %d bytes per write", pending, allocs[pending], bytes)
		if bytes > ceiling {
			t.Errorf("%d pending: %d bytes per write, ceiling %d", pending, bytes, ceiling)
		}
	}
	if allocs[1] != allocs[205] {
		t.Errorf("allocs per write depend on the pending set: %v with 1 ID, %v with 205", allocs[1], allocs[205])
	}
}

// BenchmarkStreamWrite is the layer benchmark of the mainline log write
// on a duplexed in-process CF and memory DASD, before any pass and after
// one that left 205 IDs pending. Threshold passes that fall inside the
// loop are part of the cost, as they are of a transaction's.
func BenchmarkStreamWrite(b *testing.B) {
	for _, pending := range []int{0, 205} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			ctx := context.Background()
			fx := newFixture(b, cfrm.ModeDuplexed, "SYS1")
			s := pendingStream(b, fx, "BENCH", pending)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Write(ctx, writePayload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fillForPass writes until interim storage holds n records above the low
// mark, so a forced pass moves exactly n. n must keep the stream below
// its high mark, or a threshold pass runs first.
func fillForPass(tb testing.TB, s *Stream, n int) {
	tb.Helper()
	for s.InterimLen() < s.lowMark()+n {
		if _, err := s.Write(context.Background(), writePayload); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOffloadBytesPerRecord guards what an offload pass allocates per
// record it moves. Memory DASD allocates a block per block written, so
// the DASD path's share is the blocks written times BlockSize: at most
// 512 bytes a record (a block per record was 4096). The whole pass —
// interim snapshot, DASD, pending set, cleanup batch — stays under
// 1536 bytes a record (a block per record was over 5000).
func TestOffloadBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	const perPass, dasdCeiling, passCeiling = 200, 512, 1536
	fx := newFixture(t, cfrm.ModeDuplexed, "SYS1")
	s := pendingStream(t, fx, "PASS", 0)
	blocks := fx.farm.Metrics().Counter("dasd.write")
	for pass := 0; pass < 3; pass++ {
		fillForPass(t, s, perPass)
		var before, after runtime.MemStats
		b0 := blocks.Value()
		runtime.ReadMemStats(&before)
		n, err := s.Offload(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil || n != perPass {
			t.Fatalf("pass %d moved %d records: %v", pass, n, err)
		}
		dasdPer := (blocks.Value() - b0) * dasd.BlockSize / perPass
		passPer := (after.TotalAlloc - before.TotalAlloc) / perPass
		t.Logf("pass %d: %d DASD bytes, %d bytes in all per offloaded record", pass, dasdPer, passPer)
		if dasdPer > dasdCeiling || passPer > passCeiling {
			t.Errorf("pass %d: %d DASD bytes (ceiling %d), %d in all (ceiling %d) per offloaded record",
				pass, dasdPer, dasdCeiling, passPer, passCeiling)
		}
	}
}

// BenchmarkOffloadPass times one forced offload pass of 200 records on a
// duplexed in-process CF and memory DASD; the writes that refill interim
// storage run with the timer stopped. B/op divided by 200 is the pass's
// bytes per offloaded record.
func BenchmarkOffloadPass(b *testing.B) {
	const perPass = 200
	fx := newFixture(b, cfrm.ModeDuplexed, "SYS1")
	s := pendingStream(b, fx, "BENCH", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillForPass(b, s, perPass)
		b.StartTimer()
		if n, err := s.Offload(context.Background()); err != nil || n != perPass {
			b.Fatalf("pass moved %d records: %v", n, err)
		}
	}
}
