// Package metrics provides the lightweight instrumentation primitives
// used across the sysplex emulation: counters, gauges, rate meters and
// latency histograms. All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat64 is a float64 updated with CAS loops over its bit
// pattern, so accumulators need no mutex.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat64) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat64) add(delta float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat64) takeMin(v float64) {
	for {
		old := f.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat64) takeMax(v float64) {
	for {
		old := f.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Histogram records observations into geometric latency buckets and
// tracks exact count/sum/min/max. The default bucket layout spans
// 100ns..100s with 10 buckets per decade, which comfortably covers both
// microsecond CF operations and millisecond DASD I/O.
//
// Observe is contention-free: bucket counters are atomic and the
// sum/min/max accumulators use CAS, so concurrent observers never
// serialize on a mutex. Readers (Count, Mean, Quantile, Snapshot) load
// the atomics individually; under concurrent observation a multi-field
// read such as Snapshot is loosely consistent — each field is correct
// at the instant it is read, but fields may straddle observations.
type Histogram struct {
	bounds []float64      // upper bounds, seconds; immutable
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomicFloat64
	min    atomicFloat64
	max    atomicFloat64
}

// NewHistogram returns a Histogram with the default bucket layout.
func NewHistogram() *Histogram {
	var bounds []float64
	// 10 buckets per decade from 1e-7s (100ns) to 1e2s (100s).
	for e := -7; e < 2; e++ {
		decade := math.Pow(10, float64(e))
		for i := 1; i <= 10; i++ {
			bounds = append(bounds, decade*math.Pow(10, float64(i)/10))
		}
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records a duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSeconds(d.Seconds()) }

// ObserveSeconds records an observation expressed in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	if s < 0 || math.IsNaN(s) {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, s)
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.add(s)
	h.min.takeMin(s)
	h.max.takeMax(s)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation in seconds (0 if empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.load() / float64(n)
}

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Min returns the smallest observation in seconds (0 if empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.load()
}

// Max returns the largest observation in seconds (0 if empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.load()
}

// Quantile returns an estimate of quantile q in [0,1] as seconds,
// interpolated within the containing bucket. Returns 0 if empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	max := h.max.load()
	rank := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := h.counts[i].Load()
		prev := cum
		cum += float64(c)
		if cum >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := max
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if c > 0 {
				frac = (rank - prev) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return h.clamp(lo + frac*(hi-lo))
		}
	}
	return max
}

// clamp bounds a quantile estimate to the observed [min, max] range so
// bucket interpolation never reports a value outside the data.
func (h *Histogram) clamp(v float64) float64 {
	if max := h.max.load(); v > max {
		return max
	}
	if min := h.min.load(); v < min {
		return min
	}
	return v
}

// Snapshot is a point-in-time summary of a Histogram.
type Snapshot struct {
	Count          int64
	Mean, Min, Max float64
	P50, P90, P95  float64
	P99            float64
	Sum            float64
}

// Snapshot returns a summary. Under concurrent observation the fields
// are loosely consistent (see the Histogram type comment).
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Sum:   h.Sum(),
	}
}

// String renders the snapshot compactly for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, secs(s.Mean), secs(s.P50), secs(s.P95), secs(s.P99), secs(s.Max))
}

func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// Registry is a named collection of metrics, used to expose per-system
// and per-subsystem instrument sets.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Visitor receives metric handles from Registry.Walk. Nil fields skip
// that metric family.
type Visitor struct {
	Counter   func(name string, c *Counter)
	Gauge     func(name string, g *Gauge)
	Histogram func(name string, h *Histogram)
}

// Walk visits every registered metric in sorted name order, counters
// first, then gauges, then histograms. The registry mutex is NOT held
// across callbacks: the name/handle pairs are snapshotted under the
// lock and the callbacks run against the snapshot, so a callback may
// freely create metrics or trigger hot-path updates without
// deadlocking or serializing against concurrent Counter/Gauge/
// Histogram lookups. Metrics registered after the snapshot is taken
// are not visited.
func (r *Registry) Walk(v Visitor) {
	type named[T any] struct {
		name string
		h    T
	}
	var cs []named[*Counter]
	var gs []named[*Gauge]
	var hs []named[*Histogram]
	r.mu.Lock()
	if v.Counter != nil {
		cs = make([]named[*Counter], 0, len(r.counters))
		for n, c := range r.counters {
			cs = append(cs, named[*Counter]{n, c})
		}
	}
	if v.Gauge != nil {
		gs = make([]named[*Gauge], 0, len(r.gauges))
		for n, g := range r.gauges {
			gs = append(gs, named[*Gauge]{n, g})
		}
	}
	if v.Histogram != nil {
		hs = make([]named[*Histogram], 0, len(r.histograms))
		for n, h := range r.histograms {
			hs = append(hs, named[*Histogram]{n, h})
		}
	}
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	for _, c := range cs {
		v.Counter(c.name, c.h)
	}
	for _, g := range gs {
		v.Gauge(g.name, g.h)
	}
	for _, h := range hs {
		v.Histogram(h.name, h.h)
	}
}

// RegistrySnapshot is a point-in-time copy of every metric's value,
// the unit of pull-based collection: interval reporters take one
// snapshot per interval and difference consecutive snapshots.
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]Snapshot
}

// Snapshot copies every metric's current value via Walk (loosely
// consistent under concurrent updates, field-exact per metric).
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]Snapshot{},
	}
	r.Walk(Visitor{
		Counter:   func(name string, c *Counter) { s.Counters[name] = c.Value() },
		Gauge:     func(name string, g *Gauge) { s.Gauges[name] = g.Value() },
		Histogram: func(name string, h *Histogram) { s.Histograms[name] = h.Snapshot() },
	})
	return s
}

// CounterDelta returns the per-counter increase since prev. A counter
// absent from prev contributes its full value; a counter whose value
// went backwards (the underlying source was replaced — e.g. a CF
// failover swapped registries) contributes its current value, the
// standard rate() reset rule.
func (s RegistrySnapshot) CounterDelta(prev RegistrySnapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for name, cur := range s.Counters {
		d := cur - prev.Counters[name]
		if d < 0 {
			d = cur
		}
		out[name] = d
	}
	return out
}
