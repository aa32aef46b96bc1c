package main

import (
	"sort"
	"time"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables;
// plexbench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the sysplex would see, measured
// with tracing off. BENCHMARK.json holds one bound per metric for all
// workloads, so each is what the noisiest gated workload needs.
//
// The two shared cores this was written on slow a running program down
// by a third and more, in phases of under a second to minutes, and never
// speed it up (README, "Measured spread"): the median latency of inquiry-mem
// over a quarter second reads 24.5 us whenever the host is quiet and up
// to 37 us when it is not, and a whole window's median lands anywhere
// between. So the three timings are measured per slice of every window
// and the reported value is the one a twentieth of the run's slices beat
// (quiet, below): it moves with the program and hardly with the host.
// Ten seeds of that spread 0.4-3% (p50_us), 1-9% (tx_per_s) and 4-14%
// (p95_us), by the hour, where whole-window medians spread up to 36%. ISSUE 13 asked for
// bounds of 8-12% / 10-15% / 15-20%; they sit at the 0.25 the benchmark
// contract allows at most, about three times the spread of the steadier
// periods, because a phase that outlasts a run still moves them.
// alloc_kb_per_tx repeats within 0.3% on the partitioned workloads, but
// on hot-mem it follows the lock waits (a retry allocates again) and
// five runs spread 2.8% in a busy half hour; the ISSUE's 3% becomes 8%,
// three times that.
var endToEnd = []metricDef{
	{"tx_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"alloc_kb_per_tx", "KB", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are taken from outside each layer: harness-timed calls into
// public functions, or before/after deltas of the public Stats() and
// Metrics() accessors over the traced window, per transaction.
var perLayer = []metricDef{
	{"vtam.logon_us", "us", "lower", 0},
	{"vtam.logoff_us", "us", "lower", 0},

	{"txmgr.submit_us", "us", "lower", 0},
	{"txmgr.self_us", "us", "lower", 0},
	{"txmgr.retries_per_ktx", "count", "lower", 0},
	{"txmgr.routed_share", "%", "lower", 0},

	{"db.begin_us", "us", "lower", 0},
	{"db.get_us", "us", "lower", 0},
	{"db.put_us", "us", "lower", 0},
	{"db.commit_us", "us", "lower", 0},

	{"lockmgr.lock_us", "us", "lower", 0},
	{"lockmgr.unlockall_us", "us", "lower", 0},
	{"lockmgr.locks_per_tx", "count", "lower", 0},
	{"lockmgr.contention_share", "%", "lower", 0},
	{"lockmgr.false_contention_share", "%", "lower", 0},
	{"lockmgr.negotiations_per_ktx", "count", "lower", 0},
	{"lockmgr.latency_mean_us", "us", "lower", 0},
	{"lockmgr.timeouts", "count", "lower", 0},
	{"lockmgr.deadlocks", "count", "lower", 0},

	{"buffman.local_hit_share", "%", "higher", 0},
	{"buffman.global_hits_per_ktx", "count", "lower", 0},
	{"buffman.dasd_reads_per_ktx", "count", "lower", 0},
	{"buffman.refresh_us", "us", "lower", 0},
	{"buffman.castout_ms", "ms", "lower", 0},
	{"buffman.castouts_per_ktx", "count", "lower", 0},

	{"logr.write_us", "us", "lower", 0},
	{"logr.writes_per_tx", "count", "lower", 0},
	{"logr.write_latency_mean_us", "us", "lower", 0},
	{"logr.offloads_per_ktx", "count", "lower", 0},
	{"logr.offload_ms_mean", "ms", "lower", 0},
	{"logr.offload_bytes_per_tx", "B", "lower", 0},

	{"cf.cmds_per_tx", "count", "lower", 0},
	{"cf.lock_cmds_per_tx", "count", "lower", 0},
	{"cf.cache_cmds_per_tx", "count", "lower", 0},
	{"cf.list_cmds_per_tx", "count", "lower", 0},
	{"cf.batch_ops_share", "%", "higher", 0},
	{"cf.cmd_latency_mean_us", "us", "lower", 0},
	{"cf.xi_per_ktx", "count", "lower", 0},
	{"cf.lock_pair_us", "us", "lower", 0},
	{"cf.list_pair_us", "us", "lower", 0},
	{"cf.cache_pair_us", "us", "lower", 0},

	{"cfrm.duplex_fanout_mean_us", "us", "lower", 0},
	{"cfrm.cmd_retried", "count", "lower", 0},
	{"cfrm.failovers", "count", "lower", 0},

	{"cflink.cmds_per_tx", "count", "lower", 0},
	{"cflink.rtt_mean_us", "us", "lower", 0},
	{"cflink.rtt_p99_us", "us", "lower", 0},
	{"cflink.notifies_per_ktx", "count", "lower", 0},

	{"dasd.writes_per_tx", "count", "lower", 0},
	{"dasd.reads_per_tx", "count", "lower", 0},
	{"dasd.bytes_per_user_byte", "B/B", "lower", 0},
	{"dasd.fsyncs_per_tx", "count", "lower", 0},
	{"dasd.fsync_mean_us", "us", "lower", 0},
	{"dasd.write_sync_us", "us", "lower", 0},
	{"dasd.disk_kb_per_tx", "KB", "lower", 0},
	{"dasd.reopen_ms", "ms", "lower", 0},

	{"xcf.msgs_per_ktx", "count", "lower", 0},

	{"client.p99_us", "us", "lower", 0},
	{"client.max_ms", "ms", "lower", 0},
	{"client.mallocs_per_tx", "count", "lower", 0},
	{"client.gc_pause_ms", "ms", "lower", 0},
	{"client.live_heap_mb", "MB", "lower", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},
}

// quantile reads quantile q of sorted values (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func minMedMax(v []float64) (lo, med, hi float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	med = s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[0], med, s[len(s)-1]
}

// slice is what one stretch of a window measured: the transactions whose
// reply fell in it.
type slice struct {
	txPerS   float64
	p50, p95 float64 // ns; 0 when no reply fell in the slice
}

// cutSlices cuts a window into consecutive slices of length l. The
// unfinished slice at the end is dropped; a window shorter than two
// slices (the tests run 1/100 of the counts) is one slice. A slice's
// throughput is its replies over the time from the last reply before it
// to its own last reply, so a stall is charged to the slice that ends it.
func cutSlices(rr roundResult, l time.Duration) []slice {
	n := int(rr.window / l)
	if n < 2 {
		n, l = 1, rr.window+1
	}
	lats, last := make([][]int64, n), make([]int64, n)
	for i, at := range rr.endAt {
		if k := int(at / int64(l)); k < n {
			lats[k] = append(lats[k], rr.lat[i])
			last[k] = max(last[k], at)
		}
	}
	slices := make([]slice, n)
	var prev int64
	for k, lat := range lats {
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		slices[k] = slice{float64(len(lat)) / (float64(last[k]-prev) / 1e9), quantile(lat, 0.50), quantile(lat, 0.95)}
		prev = last[k]
	}
	return slices
}

// quietShare: a reported timing is the value that this share of the run's
// slices beat, counted from the good end — the level the program holds
// whenever the host lets it, not the level of the host (see endToEnd).
const quietShare = 0.05

// quiet returns that value; zeros (slices without a reply) are left out
// of a latency.
func quiet(vals []float64, better string) float64 {
	var s []float64
	for _, v := range vals {
		if v > 0 || better == "higher" {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(quietShare * float64(len(s)))
	if better == "higher" {
		i = len(s) - 1 - i
	}
	return s[i]
}
