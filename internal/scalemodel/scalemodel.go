// Package scalemodel reproduces the paper's §4 scalability evaluation
// (Figure 3) and the §2.3 data-sharing versus data-partitioning
// comparison from a solved queueing model. The authors measured a
// 100% data-sharing CICS/DBCTL workload on S/390 9672 hardware [8,9];
// our substitute solves a calibrated OLTP workload model — each
// system's CPU and the shared CF as queueing centres, a closed network
// by mean-value analysis (MVA) and open stations by Erlang C:
//
//   - IDEAL: effective capacity == physical capacity.
//   - TCMP: a tightly coupled multiprocessor pays hardware MP overhead
//     (inter-processor serialization, cache cross-invalidation) that
//     grows super-linearly with the number of engines, flattening the
//     curve.
//   - PARALLEL SYSPLEX: each added system pays a small, *constant*
//     data-sharing toll (synchronous CF lock/cache commands) plus a
//     tiny per-peer term (cross-invalidate fan-out, contention growth),
//     so the curve stays near-linear out to 32 systems.
//
// The §4 claims checked against the model: the 1→2 system data-sharing
// enablement cost is below 18%, and each added system costs below 0.5%.
package scalemodel

import "math"

// Params calibrate the workload and hardware model.
type Params struct {
	// CPUsPerSystem is the TCMP width of each sysplex member.
	CPUsPerSystem int
	// BaseServiceMS is the raw CPU path length per transaction in
	// milliseconds on one engine with no MP or data-sharing overhead.
	BaseServiceMS float64
	// CFOpMicros is the synchronous CF command time charged to the
	// requesting CPU (coupling link + CF processing; §3.3 "measured in
	// micro-seconds").
	CFOpMicros float64
	// LockOpsPerTx and CacheOpsPerTx count CF accesses per transaction.
	LockOpsPerTx  int
	CacheOpsPerTx int
	// XIMicrosPerPeer is the incremental CF cost per *other* registered
	// system for a cache write (parallel cross-invalidate fan-out).
	XIMicrosPerPeer float64
	// ContentionProbPerPeer is the per-lock-op probability of real
	// contention per peer system.
	ContentionProbPerPeer float64
	// ContentionCPUMicros is the extra CPU burned on negotiation when
	// contention strikes; ContentionDelayMicros is the added wait.
	ContentionCPUMicros   float64
	ContentionDelayMicros float64
	// MPa/MPb shape the TCMP overhead: effective(n) = n / (1 + MPa*(n-1)
	// + MPb*(n-1)^2).
	MPa, MPb float64
	// CFProcessors sizes the coupling facility (§3.3: multiple CFs can
	// be configured for capacity; we model the aggregate).
	CFProcessors int
	// ClientsPerCPU controls the closed-loop population (saturation
	// drive).
	ClientsPerCPU int
}

// DefaultParams returns the calibration used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{
		CPUsPerSystem:         1,
		BaseServiceMS:         2.0,
		CFOpMicros:            8,
		LockOpsPerTx:          20,
		CacheOpsPerTx:         10,
		XIMicrosPerPeer:       0.1,
		ContentionProbPerPeer: 0.0002,
		ContentionCPUMicros:   100,
		ContentionDelayMicros: 500,
		MPa:                   0.02,
		MPb:                   0.004,
		CFProcessors:          8,
		ClientsPerCPU:         4,
	}
}

// TCMPEffective is the analytic hardware model for an n-way tightly
// coupled multiprocessor's effective capacity in single-engine units.
func TCMPEffective(n int, p Params) float64 {
	if n <= 0 {
		return 0
	}
	k := float64(n - 1)
	return float64(n) / (1 + p.MPa*k + p.MPb*k*k)
}

// mpInflation is the CPU service-time inflation for a c-way TCMP.
func mpInflation(c int, p Params) float64 {
	if c <= 1 {
		return 1
	}
	return float64(c) / TCMPEffective(c, p)
}

// Result is one solved configuration.
type Result struct {
	Systems      int
	CPUs         int // total physical engines
	Throughput   float64
	CPUUtil      float64
	CFUtil       float64
	MeanRespMS   float64
	EffectiveCap float64 // relative to a 1-engine, no-overhead system
}

// Sysplex solves the closed-loop OLTP workload on m data-sharing
// systems (m==1 runs without data sharing, the §4 baseline) and
// returns its capacity.
func Sysplex(m int, p Params) Result {
	if m < 1 {
		panic("scalemodel: need at least one system")
	}
	// Per-transaction demands in µs. Only data sharing (m > 1) uses the
	// CF: the requesting CPU waits out each synchronous command, so the
	// command time is CPU demand too, and the CF processors serve it.
	// Real contention adds negotiation CPU and a wait, charged at its
	// expected count per transaction.
	cpu := p.BaseServiceMS * 1e3 * mpInflation(p.CPUsPerSystem, p)
	var cf, wait float64
	if m > 1 {
		peers := float64(m - 1)
		contended := float64(p.LockOpsPerTx) * p.ContentionProbPerPeer * peers
		cpu += float64(p.LockOpsPerTx)*p.CFOpMicros +
			float64(p.CacheOpsPerTx)*(p.CFOpMicros+peers*p.XIMicrosPerPeer) +
			contended*p.ContentionCPUMicros
		cf = float64(p.LockOpsPerTx+p.CacheOpsPerTx) * p.CFOpMicros
		wait = contended * p.ContentionDelayMicros
	}
	x, resp := mva(m, float64(p.ClientsPerCPU*p.CPUsPerSystem), cpu, p.CPUsPerSystem, cf, p.CFProcessors, wait)
	tput := float64(m) * x * 1e6
	// Normalization: ideal single-engine capacity with no overheads.
	idealPerEngine := 1000.0 / p.BaseServiceMS // tx/sec per engine
	return Result{
		Systems:      m,
		CPUs:         m * p.CPUsPerSystem,
		Throughput:   tput,
		CPUUtil:      x * cpu / float64(p.CPUsPerSystem),
		CFUtil:       float64(m) * x * cf / float64(p.CFProcessors),
		MeanRespMS:   resp / 1e3,
		EffectiveCap: tput / idealPerEngine,
	}
}

// mva solves m identical classes of n clients by Bard–Schweitzer
// approximate MVA and returns one class's throughput and mean response
// time. Each class queues at its own c-way CPU (demand cpu) and at the
// k-way CF every class shares (demand cf), and spends z in pure delay.
// A multi-server station is Seidmann's approximation: one server of
// demand D/c plus a delay of D·(c−1)/c. The classes are identical, so
// the fixed point is a scalar iteration on one of them; exact
// multiclass MVA would visit every population vector.
func mva(m int, n, cpu float64, c int, cf float64, k int, z float64) (x, resp float64) {
	dCPU, dCF := cpu/float64(c), cf/float64(k)
	z += cpu - dCPU + cf - dCF
	qCPU, qCF := n/2, n/2 // one class's mean queue at each centre
	for i := 0; i < 10000; i++ {
		// An arrival sees its own class's queues with itself removed,
		// (n−1)/n of them, and every other class's CF queue in full.
		rCPU := dCPU * (1 + qCPU*(n-1)/n)
		rCF := dCF * (1 + float64(m)*qCF - qCF/n)
		resp = rCPU + rCF + z
		next := n / resp
		qCPU, qCF = next*rCPU, next*rCF
		if math.Abs(next-x) <= 1e-12*next {
			return next, resp
		}
		x = next
	}
	return x, resp
}

// Figure3Point is one row of the reproduced Figure 3.
type Figure3Point struct {
	CPUs    int
	Ideal   float64
	TCMP    float64 // analytic hardware model (capped at 10 engines = max TCMP)
	Sysplex float64 // solved closed network (m systems × CPUsPerSystem)
}

// Figure3 computes the three curves of Figure 3 for 1..maxSystems
// sysplex members. The TCMP curve is evaluated at the same engine
// counts (hypothetically beyond its 10-way product limit, to show the
// flattening the figure draws).
func Figure3(maxSystems int, p Params) []Figure3Point {
	out := make([]Figure3Point, 0, maxSystems)
	for m := 1; m <= maxSystems; m++ {
		r := Sysplex(m, p)
		out = append(out, Figure3Point{
			CPUs:    r.CPUs,
			Ideal:   float64(r.CPUs),
			TCMP:    TCMPEffective(r.CPUs, p),
			Sysplex: r.EffectiveCap,
		})
	}
	return out
}

// ScalingClaims are the §4 quantitative claims extracted from the
// solved configurations.
type ScalingClaims struct {
	// DataSharingCost is the relative capacity cost of moving from one
	// non-data-sharing system to two data-sharing systems
	// (paper: measured at less than 18%).
	DataSharingCost float64
	// MaxIncrementalCost is the worst per-added-system relative
	// overhead beyond two systems (paper: less than 0.5%).
	MaxIncrementalCost float64
	// Effective32 is the effective capacity at 32 systems relative to
	// 32 ideal engines.
	Effective32 float64
}

// Claims solves the configurations needed for the §4 claims.
func Claims(p Params) ScalingClaims {
	r1 := Sysplex(1, p)
	r2 := Sysplex(2, p)
	claims := ScalingClaims{
		DataSharingCost: 1 - r2.EffectiveCap/(2*r1.EffectiveCap/float64(1)),
	}
	prev := r2
	worst := 0.0
	var last Result
	for m := 3; m <= 32; m++ {
		r := Sysplex(m, p)
		// Per-system incremental overhead: the shortfall of this step's
		// growth versus perfectly linear growth from the previous point.
		incr := 1 - (r.EffectiveCap/prev.EffectiveCap)/(float64(m)/float64(m-1))
		if incr > worst {
			worst = incr
		}
		prev = r
		last = r
	}
	claims.MaxIncrementalCost = worst
	claims.Effective32 = last.EffectiveCap / float64(last.CPUs)
	return claims
}

// SkewResult compares data sharing with data partitioning under a hot
// workload (§2.3).
type SkewResult struct {
	Mode       string  // "sharing" or "partitioned"
	Skew       float64 // fraction of transactions hitting the hot partition
	OfferedTPS float64
	Throughput float64
	MeanRespMS float64 // +Inf when a station is saturated
	UtilMin    float64
	UtilMax    float64
}

// Skew solves an open workload offered at offeredTPS across m systems.
// In "sharing" mode any system can run any transaction and WLM balances
// arrivals, so the m systems act as one pooled station of m·c engines,
// each transaction carrying the data-sharing toll. In "partitioned"
// mode each transaction must execute on the system that owns its data:
// the hot partition receives `skew` of all transactions while the rest
// spread evenly, and each system is its own c-engine station.
func Skew(mode string, m int, skew, offeredTPS float64, p Params) SkewResult {
	c := p.CPUsPerSystem
	svc := p.BaseServiceMS * mpInflation(c, p) / 1e3 // seconds
	r := SkewResult{Mode: mode, Skew: skew, OfferedTPS: offeredTPS}
	if mode == "sharing" {
		svc += float64(p.LockOpsPerTx+p.CacheOpsPerTx) * p.CFOpMicros / 1e6
		x, resp, util := station(m*c, svc, offeredTPS)
		r.Throughput, r.MeanRespMS, r.UtilMin, r.UtilMax = x, resp*1e3, util, util
		return r
	}
	loads := make([]float64, m)
	loads[0] = offeredTPS
	if m > 1 {
		loads[0] = skew * offeredTPS
		for i := 1; i < m; i++ {
			loads[i] = (1 - skew) * offeredTPS / float64(m-1)
		}
	}
	r.UtilMin, r.UtilMax = 2, -1
	var busy float64 // Σ throughput × response: Little's law population
	for _, lambda := range loads {
		x, resp, util := station(c, svc, lambda)
		r.Throughput += x
		busy += x * resp
		r.UtilMin, r.UtilMax = math.Min(r.UtilMin, util), math.Max(r.UtilMax, util)
	}
	r.MeanRespMS = busy / r.Throughput * 1e3
	return r
}

// station solves an open c-server station with Poisson arrivals at
// rate lambda and fixed service time svc: Erlang C with the
// Allen–Cunneen factor (c_a²+c_s²)/2 = 1/2, so the wait is half of
// M/M/c's. A saturated station (lambda ≥ c/svc) completes work at its
// capacity, is busy all the time, and its queue grows without bound.
func station(c int, svc, lambda float64) (x, resp, util float64) {
	capacity := float64(c) / svc
	if lambda >= capacity {
		return capacity, math.Inf(1), 1
	}
	a := lambda * svc
	return lambda, svc + erlangC(c, a)/(capacity-lambda)/2, a / float64(c)
}

// erlangC is the probability that an arrival waits at an M/M/c station
// offered a < c erlangs, from the Erlang B recursion.
func erlangC(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - a/float64(c)*(1-b))
}
