package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	wantMean := (1 + 10 + 100) * 1e-6 / 3
	if got := h.Mean(); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("Mean = %g, want %g", got, wantMean)
	}
	if got := h.Min(); math.Abs(got-1e-6) > 1e-12 {
		t.Fatalf("Min = %g", got)
	}
	if got := h.Max(); math.Abs(got-1e-4) > 1e-12 {
		t.Fatalf("Max = %g", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramIgnoresNegativeAndNaN(t *testing.T) {
	h := NewHistogram()
	h.ObserveSeconds(-1)
	h.ObserveSeconds(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("Count = %d, want 0", h.Count())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations uniform on (0, 1ms].
	for i := 1; i <= 1000; i++ {
		h.ObserveSeconds(float64(i) * 1e-6)
	}
	p50 := h.Quantile(0.5)
	if p50 < 300e-6 || p50 > 700e-6 {
		t.Fatalf("p50 = %g, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900e-6 || p99 > 1100e-6 {
		t.Fatalf("p99 = %g, want ~990µs", p99)
	}
	if q0 := h.Quantile(-1); q0 < 0 {
		t.Fatalf("clamped quantile negative: %g", q0)
	}
	if q1 := h.Quantile(2); q1 > h.Max()+1e-9 {
		t.Fatalf("clamped quantile above max: %g", q1)
	}
}

func TestHistogramSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: quantile is monotonic in q and bounded by [0, max].
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(obs []uint32, qa, qb uint8) bool {
		h := NewHistogram()
		for _, o := range obs {
			h.ObserveSeconds(float64(o%1_000_000) * 1e-9)
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		va, vb := h.Quantile(a), h.Quantile(b)
		return va <= vb+1e-12 && va >= 0 && vb <= h.Max()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is bounded by [min, max].
func TestHistogramMeanBoundedProperty(t *testing.T) {
	f := func(obs []uint32) bool {
		if len(obs) == 0 {
			return true
		}
		h := NewHistogram()
		for _, o := range obs {
			h.ObserveSeconds(float64(o) * 1e-9)
		}
		m := h.Mean()
		return m >= h.Min()-1e-15 && m <= h.Max()+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("tx.commit")
	c2 := r.Counter("tx.commit")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	c1.Inc()
	if r.Counter("tx.commit").Value() != 1 {
		t.Fatal("lost count")
	}
	r.Gauge("g").Set(3)
	if r.Gauge("g").Value() != 3 {
		t.Fatal("gauge mismatch")
	}
	r.Histogram("h").Observe(time.Millisecond)
	if r.Histogram("h").Count() != 1 {
		t.Fatal("histogram mismatch")
	}
	var counters, gauges, hists []string
	r.Walk(Visitor{
		Counter:   func(name string, c *Counter) { counters = append(counters, name) },
		Gauge:     func(name string, g *Gauge) { gauges = append(gauges, name) },
		Histogram: func(name string, h *Histogram) { hists = append(hists, name) },
	})
	if len(counters) != 1 || counters[0] != "tx.commit" {
		t.Fatalf("counters = %v", counters)
	}
	if len(gauges) != 1 || gauges[0] != "g" {
		t.Fatalf("gauges = %v", gauges)
	}
	if len(hists) != 1 || hists[0] != "h" {
		t.Fatalf("histograms = %v", hists)
	}
}

func TestRegistryWalk(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(time.Millisecond)
	var counters, gauges, hists []string
	r.Walk(Visitor{
		Counter:   func(name string, c *Counter) { counters = append(counters, name) },
		Gauge:     func(name string, g *Gauge) { gauges = append(gauges, name) },
		Histogram: func(name string, h *Histogram) { hists = append(hists, name) },
	})
	if len(counters) != 2 || counters[0] != "a" || counters[1] != "b" {
		t.Fatalf("counters = %v, want sorted [a b]", counters)
	}
	if len(gauges) != 1 || gauges[0] != "g" || len(hists) != 1 || hists[0] != "h" {
		t.Fatalf("gauges = %v hists = %v", gauges, hists)
	}
}

// Walk must not hold the registry lock across callbacks: a callback
// that itself creates a metric would otherwise deadlock.
func TestRegistryWalkReentrant(t *testing.T) {
	r := NewRegistry()
	r.Counter("seed").Inc()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Walk(Visitor{Counter: func(name string, c *Counter) {
			r.Counter("made-during-walk").Inc()
			r.Histogram("h2").Observe(time.Microsecond)
		}})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Walk deadlocked against a metric-creating callback")
	}
	if r.Counter("made-during-walk").Value() != 1 {
		t.Fatal("callback-created counter lost")
	}
}

func TestRegistrySnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(time.Millisecond)
	prev := r.Snapshot()
	r.Counter("c").Add(3)
	r.Counter("new").Inc()
	cur := r.Snapshot()
	d := cur.CounterDelta(prev)
	if d["c"] != 3 {
		t.Fatalf("delta c = %d, want 3", d["c"])
	}
	if d["new"] != 1 {
		t.Fatalf("delta new = %d, want 1 (absent from prev = full value)", d["new"])
	}
	if prev.Gauges["g"] != -2 || prev.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot values wrong: %+v", prev)
	}
	// Reset rule: a counter that went backwards (source replaced)
	// contributes its current value, never a negative delta.
	replaced := RegistrySnapshot{Counters: map[string]int64{"c": 2}}
	d = replaced.CounterDelta(cur)
	if d["c"] != 2 {
		t.Fatalf("reset delta = %d, want 2", d["c"])
	}
}

// Stress: concurrent registry walks and snapshots against hot-path
// counter/gauge/histogram updates and new-metric registration. Run
// under -race (make race covers this package via the rmf target); the
// assertion here is freedom from deadlock and torn bookkeeping.
func TestRegistryWalkConcurrentWithUpdates(t *testing.T) {
	r := NewRegistry()
	r.Counter("hot")
	r.Gauge("level")
	r.Histogram("lat")
	const iters = 3000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("hot").Inc()
				r.Gauge("level").Add(1)
				r.Histogram("lat").ObserveSeconds(1e-6)
				if j%64 == 0 {
					r.Counter(fmt.Sprintf("dyn.%d.%d", i, j)).Inc()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for walking := true; walking; {
		select {
		case <-done:
			walking = false
		default:
		}
		n := 0
		r.Walk(Visitor{
			Counter:   func(name string, c *Counter) { n++; _ = c.Value() },
			Gauge:     func(name string, g *Gauge) { n++; _ = g.Value() },
			Histogram: func(name string, h *Histogram) { n++; _ = h.Snapshot() },
		})
		if n == 0 {
			t.Fatal("walk visited nothing")
		}
		_ = r.Snapshot()
	}
	if got := r.Counter("hot").Value(); got != 4*iters {
		t.Fatalf("hot = %d, want %d", got, 4*iters)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 4000 {
		t.Fatalf("c = %d", r.Counter("c").Value())
	}
	if r.Histogram("h").Count() != 4000 {
		t.Fatalf("h = %d", r.Histogram("h").Count())
	}
}
