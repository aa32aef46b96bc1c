// Command plexbench is the repository's end-to-end benchmark: one
// transaction through SubmitViaLogon is the unit of account. It runs
// five workloads closed-loop against a fresh four-system sysplex per
// round, checks every reply, and prints every metric by name and unit;
// timings are taken per quarter-second slice of a window and reported
// from the quiet end, because the host only ever slows a run down. With
// -trace 1 one extra traced round fills a per-layer ledger. See README.md
// in this directory.
//
//	go run ./cmd/plexbench                          # all workloads, fixed counts
//	go run ./cmd/plexbench -workload oltp-mem -trace 1
//	go run ./cmd/plexbench -repeat 2                # two sets, compared against the bounds
//
// The last line of standard output of each workload is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// options selects what one invocation runs.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64 // measuring time per workload; 0: the fixed counts
	trace     bool
	traceOut  string // trace file; "": <tmp>/plexbench-trace-<workload>.jsonl
	repeat    int
	tmp       string  // parent of the scratch directory
	scale     float64 // multiplies every transaction count (tests run at 1/100)
	out       io.Writer
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one workload.
type result struct {
	workload  string
	attempted int
	failed    int
	e2e       map[string]float64   // end-to-end metrics (untraced rounds)
	rounds    map[string][]float64 // per-round values behind each end-to-end metric
	samples   int                  // latency samples behind p50/p95, all rounds
	slices    int                  // slices behind the three timings, all rounds
	layers    map[string]float64   // per-layer metrics, -trace 1 only
	ledger    []ledgerLine
}

func main() {
	var o options
	var names string
	var trace int
	flag.StringVar(&names, "workload", "all", "workload name, comma-separated names, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated transaction inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per workload, split over the rounds (0: the fixed transaction counts)")
	flag.IntVar(&trace, "trace", 0, "1: one untraced and one traced round per workload, reporting the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "trace file (default <tmp>/plexbench-trace-<workload>.jsonl)")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and compare the sets against the bounds")
	flag.StringVar(&o.tmp, "tmp", ".bench_build", "directory under which the scratch directory (sockets, DASD files) is made and removed")
	flag.Parse()
	o.trace = trace != 0
	o.scale = 1
	o.out = os.Stdout
	if flag.NArg() > 0 || trace < 0 || trace > 1 || o.repeat < 1 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "usage: plexbench [-workload names] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-repeat n] [-tmp dir]")
		os.Exit(2)
	}
	if names == "all" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(names, ",") {
			w, err := findWorkload(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, "plexbench:", err)
				os.Exit(2)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	_, err := runSets(ctx, o)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "plexbench:", err)
		os.Exit(1)
	}
}

// runSets executes the selected workloads o.repeat times. Every exit
// path, including failure and SIGINT, removes the scratch directory
// first. A failed transaction or a correctness violation is an error:
// only clean workloads get a result line.
func runSets(ctx context.Context, o options) ([][]result, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.tmp, "plexbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	var stop atomic.Bool
	unwatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	defer unwatch()

	// Closed loop: as many terminals as cores, at most two, and
	// GOMAXPROCS pinned to the same number.
	clients := min(runtime.NumCPU(), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients))
	printStamp(o, clients)

	var sets [][]result
	for set := 0; set < o.repeat; set++ {
		var results []result
		for _, w := range o.workloads {
			fmt.Fprintf(o.out, "\n== %s (set %d of %d)\n", w.name, set+1, o.repeat)
			r, err := runWorkload(ctx, o, w, clients, filepath.Join(scratch, w.name), &stop)
			if err != nil {
				return sets, fmt.Errorf("workload %s: %w", w.name, err)
			}
			report(o, r)
			results = append(results, r)
		}
		sets = append(sets, results)
	}
	if o.repeat > 1 {
		return sets, compareSets(o, sets)
	}
	return sets, nil
}

// runWorkload measures one workload: roundsFor untraced rounds, or with
// -trace one untraced round and one traced round on a quarter of the
// count.
func runWorkload(ctx context.Context, o options, w workload, clients int, dir string, stop *atomic.Bool) (result, error) {
	res := result{workload: w.name, e2e: map[string]float64{}, rounds: map[string][]float64{}}
	count := max(int(float64(w.count)*o.scale), 8*clients) / clients * clients
	plan := roundPlan{
		w: w, seed: o.seed, clients: clients, count: count,
		warmup: max(int(warmupTx*o.scale), 20*clients) / clients * clients,
		stop:   stop,
	}
	n := roundsFor(o.seconds)
	plan.budget = time.Duration(o.seconds / float64(n) * float64(time.Second))
	if o.trace {
		n = 1
	}
	var runs []roundResult
	for r := 0; r < n; r++ {
		plan.round, plan.dir = r, filepath.Join(dir, fmt.Sprintf("r%d", r))
		plan.reopen = w.disk && r == n-1 && !o.trace // with -trace the traced round reopens
		rr, err := runRound(ctx, plan)
		res.attempted += rr.attempted
		res.failed += rr.failed
		if err != nil {
			return res, fmt.Errorf("round %d: %w", r+1, err)
		}
		runs = append(runs, rr)
	}
	// The three timings are measured per slice of every window and
	// reported by the rule of quiet (metrics.go); beside them go the
	// whole-window figures of each round. Allocation does not depend on
	// the host's speed and is the median of the rounds; set-up is too
	// short to slice and is the quiet one of the rounds' set-ups.
	var txPerS, p50, p95 []float64
	for _, rr := range runs {
		for _, sl := range cutSlices(rr, w.slice) {
			txPerS, p50, p95 = append(txPerS, sl.txPerS), append(p50, sl.p50/1e3), append(p95, sl.p95/1e3)
		}
		tx := float64(rr.ok())
		sorted := sortedCopy(rr.lat)
		res.samples += len(sorted)
		for name, v := range map[string]float64{
			"tx_per_s":        tx / rr.window.Seconds(),
			"p50_us":          quantile(sorted, 0.50) / 1e3,
			"p95_us":          quantile(sorted, 0.95) / 1e3,
			"alloc_kb_per_tx": float64(rr.alloc) / 1024 / tx,
			"setup_s":         rr.setup.Seconds(),
		} {
			res.rounds[name] = append(res.rounds[name], v)
		}
	}
	res.slices = len(txPerS)
	res.e2e["tx_per_s"] = quiet(txPerS, "higher")
	res.e2e["p50_us"] = quiet(p50, "lower")
	res.e2e["p95_us"] = quiet(p95, "lower")
	_, res.e2e["alloc_kb_per_tx"], _ = minMedMax(res.rounds["alloc_kb_per_tx"])
	res.e2e["setup_s"] = quiet(res.rounds["setup_s"], "lower")

	if o.trace {
		lay := &layerPass{tr: &tracer{}}
		plan.round, plan.dir, plan.lay = n, filepath.Join(dir, "traced"), lay
		plan.count = min(max(count/4, 8*clients), tracedTxCap) / clients * clients
		plan.reopen = w.disk
		rr, err := runRound(ctx, plan)
		res.attempted += rr.attempted
		res.failed += rr.failed
		if err != nil {
			return res, fmt.Errorf("traced round: %w", err)
		}
		res.layers, res.ledger = lay.metrics(runs[0], sortedCopy(runs[0].lat), rr)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.tmp, "plexbench-trace-"+w.name+".jsonl")
		}
		if err := lay.tr.write(path); err != nil {
			return res, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(o.out, "trace: %d transactions, spans in %s\n", lay.tr.stats().txs, path)
	}
	return res, nil
}

// tracedTxCap bounds the traced round: eight spans a transaction are
// kept in memory and written out.
const tracedTxCap = 20000

// printStamp records the environment beside the numbers.
func printStamp(o options, clients int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	host, _ := os.Hostname()
	names := make([]string, len(o.workloads))
	for i, w := range o.workloads {
		names[i] = w.name
	}
	fmt.Fprintf(o.out, "plexbench  host=%s cpu=%q nproc=%d gomaxprocs=%d clients=%d (closed loop) %s %s/%s commit=%s\n",
		host, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clients, runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Fprintf(o.out, "           seed=%d rounds=%d seconds=%g trace=%v repeat=%d workloads=%s\n",
		o.seed, roundsFor(o.seconds), o.seconds, o.trace, o.repeat, strings.Join(names, ","))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints one workload's metrics and, last, its result line.
func report(o options, r result) {
	fmt.Fprintf(o.out, "attempted=%d failed=%d latency-samples=%d slices=%d (timings: the value %.0f%% of the slices beat; rounds: whole windows)\n",
		r.attempted, r.failed, r.samples, r.slices, quietShare*100)
	metrics := map[string]value{}
	for _, m := range endToEnd {
		lo, med, hi := minMedMax(r.rounds[m.name])
		fmt.Fprintf(o.out, "  %-32s %14.4f %-6s rounds min/med/max %.4f / %.4f / %.4f  (bound %.0f%%)\n",
			m.name, r.e2e[m.name], m.unit, lo, med, hi, m.bound*100)
		if !o.trace {
			metrics[m.name] = value{r.e2e[m.name], m.unit}
		}
	}
	if o.trace {
		for _, m := range perLayer {
			fmt.Fprintf(o.out, "  %-32s %14.4f %s\n", m.name, r.layers[m.name], m.unit)
			metrics[m.name] = value{r.layers[m.name], m.unit}
		}
		printLedger(o.out, r.ledger)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // a NaN metric: a bug in the harness
	}
	fmt.Fprintf(o.out, "%s\n", line)
}

// compareSets prints, per workload and end-to-end metric, how far each
// later set is from the first, and fails when one is outside its bound.
func compareSets(o options, sets [][]result) error {
	fmt.Fprintf(o.out, "\n== repeat: sets 2..%d against set 1\n", len(sets))
	var outside []string
	for i, first := range sets[0] {
		for _, m := range endToEnd {
			worst := 0.0
			for _, set := range sets[1:] {
				d := (set[i].e2e[m.name] - first.e2e[m.name]) / first.e2e[m.name]
				if math.Abs(d) > math.Abs(worst) {
					worst = d
				}
			}
			verdict := "ok"
			if math.Abs(worst) > m.bound {
				verdict = "OUTSIDE"
				outside = append(outside, first.workload+"/"+m.name)
			}
			fmt.Fprintf(o.out, "  %-12s %-18s %+7.2f%%  bound %4.0f%%  %s\n", first.workload, m.name, worst*100, m.bound*100, verdict)
		}
	}
	if len(outside) > 0 {
		return errors.New("sets disagree beyond the bound on " + strings.Join(outside, ", "))
	}
	return nil
}
