// Command sysplexbench runs the measurements that no test, benchmark or
// example already drives — CF command-path scaling, the cflink wire's
// cost, op batching, the RMF collector's overhead, and the
// kill-and-restart durability audit — and prints each as a table. The
// paper's figures and §2–§4 claims are asserted by the root tests,
// measured by bench_test.go and shown by the programs under examples/.
//
// Usage:
//
//	sysplexbench -exp all                                  # every experiment
//	sysplexbench -exp cfscale,transport -json BENCH_cf.json
//
// The experiments are the experiments table below; -h lists them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/cflink"
	"sysplex/internal/cfrm"
	"sysplex/internal/rmf"
	"sysplex/internal/vclock"
)

var (
	expFlag  = flag.String("exp", "all", "comma-separated experiments to run (listed above), or all")
	seedFlag = flag.Int64("seed", 1996, "seed for restart's kill points")
	jsonFlag = flag.String("json", "", "also merge machine-readable results into this JSON file")
)

type experiment struct {
	name, about string
	run         func() error
}

// experiments is every experiment, in the order -exp all runs them.
var experiments = []experiment{
	{"cfscale", "CF command ops/s at 1-16 goroutines, simplex and duplexed", cfScale},
	{"transport", "duplexed CF commands in process vs over unix and tcp cflink", transport},
	{"batch", "bulk lock release over cflink: one command each vs batched", batchBench},
	{"rmf", "RMF collector overhead on the duplexed lock path, A/B", rmfBench},
	{"restart", "SIGKILL and cold restart, auditing every acknowledged unit", restartBench},
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintln(out, "usage: sysplexbench [flags]\n\nexperiments:")
	for _, e := range experiments {
		fmt.Fprintf(out, "  %-10s %s\n", e.name, e.about)
	}
	fmt.Fprintln(out, "\nflags:")
	flag.PrintDefaults()
}

// results accumulates the -json output, one section per experiment.
var results = map[string]map[string]any{}

// record stores one measured value in section sec of the -json output.
// A section's first value also stamps the environment it was taken in.
func record(sec, key string, value any) {
	if results[sec] == nil {
		results[sec] = map[string]any{
			"host_cpus":  runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"commit":     commit(),
		}
	}
	results[sec][key] = value
}

// commit is the VCS revision the binary was built from, or "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// writeJSON merges results into path, so runs of different experiments
// into one file (cfscale, then transport, into BENCH_cf.json) add
// sections instead of replacing the file.
func writeJSON(path string) error {
	merged := map[string]map[string]any{}
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &merged)
	}
	for sec, kv := range results {
		if merged[sec] == nil {
			merged[sec] = map[string]any{}
		}
		maps.Copy(merged[sec], kv)
	}
	raw, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	// Child role of EXP-RESTART: this binary re-executed as the
	// workload process the parent SIGKILLs.
	if spec := os.Getenv(restartChildEnv); spec != "" {
		restartChild(spec)
		return
	}
	flag.Usage = usage
	flag.Parse()
	todo := experiments
	if *expFlag != "all" {
		todo = nil
		for _, name := range strings.Split(*expFlag, ",") {
			i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				flag.Usage()
				os.Exit(2)
			}
			todo = append(todo, experiments[i])
		}
	}
	for _, e := range todo {
		fmt.Printf("==== %s ====\n", strings.ToUpper(e.name))
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *jsonFlag != "" {
		if err := writeJSON(*jsonFlag); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonFlag)
	}
}

// measure runs op from g goroutines for window — goroutine k calls
// op(k, 0), op(k, 1), … until the window closes — and returns the
// completed ops per second, or the first error any op returned.
func measure(g int, window time.Duration, op func(g, i int) error) (float64, error) {
	var total, stop atomic.Int64
	var first atomic.Pointer[error]
	var wg sync.WaitGroup
	for k := 0; k < g; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for i := 0; stop.Load() == 0; i++ {
				if err := op(k, i); err != nil {
					first.CompareAndSwap(nil, &err)
					break
				}
				n++
			}
			total.Add(n)
		}()
	}
	start := time.Now()
	time.Sleep(window)
	stop.Store(1)
	wg.Wait()
	elapsed := time.Since(start)
	if err := first.Load(); err != nil {
		return 0, *err
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// The CF command mixes the experiments drive. Each allocates its
// structure on f — a simplex cf.New facility or a cf.NewDuplexed pair —
// and returns the op that goroutine g repeats with iteration i.

// lockOps obtains and releases an exclusive lock entry.
func lockOps(f cf.Front) (func(g, i int) error, error) {
	ls, err := f.AllocateLockStructure("IRLM", 4096)
	if err != nil {
		return nil, err
	}
	if err := ls.Connect(context.Background(), "SYS1"); err != nil {
		return nil, err
	}
	return func(g, i int) error {
		e := (g*131 + i) % 4096
		if _, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil {
			return err
		}
		return ls.Release(context.Background(), e, "SYS1", cf.Exclusive)
	}, nil
}

// readOps reads and registers interest in one of 512 cached pages.
func readOps(f cf.Front) (func(g, i int) error, error) {
	cs, err := f.AllocateCacheStructure("GBP0", 8192)
	if err != nil {
		return nil, err
	}
	if err := cs.Connect(context.Background(), "SYS1", cf.NewBitVector(1024)); err != nil {
		return nil, err
	}
	pages := make([]string, 512)
	for i := range pages {
		pages[i] = fmt.Sprintf("PAGE%03d", i)
		if err := cs.WriteAndInvalidate(context.Background(), "SYS1", pages[i], []byte("data"), true, false, i); err != nil {
			return nil, err
		}
	}
	return func(g, i int) error {
		_, err := cs.ReadAndRegister(context.Background(), "SYS1", pages[(g*97+i)%512], i%1024)
		return err
	}, nil
}

// listOps writes an entry to a list and pops one off it.
func listOps(f cf.Front) (func(g, i int) error, error) {
	ls, err := f.AllocateListStructure("WORKQ", 64, 0, 1<<20)
	if err != nil {
		return nil, err
	}
	if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
		return nil, err
	}
	return func(g, i int) error {
		list := g % 64
		id := fmt.Sprintf("g%d-e%d", g, i)
		if err := ls.Write(context.Background(), "SYS1", list, id, "", nil, cf.FIFO, cf.Cond{}); err != nil {
			return err
		}
		_, err := ls.Pop(context.Background(), "SYS1", list, cf.Cond{})
		return err
	}, nil
}

var clk = vclock.Real()

// inprocPair is a fresh duplexed pair of in-process facilities.
func inprocPair() *cf.Duplexed {
	return cf.NewDuplexed(clk, nil, cf.New("CF01", clk), cf.New("CF02", clk))
}

// linkFront serves two fresh facilities, CF01 and CF02, over cflink on
// network ("unix" sockets in dir, or loopback "tcp"), dials both as
// SYS1 and duplexes them. cleanup closes the clients and then the
// servers.
func linkFront(network, dir string) (d *cf.Duplexed, cleanup func(), err error) {
	var cleanups []func()
	cleanup = func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	var nodes []cf.Node
	for _, name := range []string{"CF01", "CF02"} {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = filepath.Join(dir, name+".sock")
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv := cflink.NewServer(cf.New(name, clk))
		go srv.Serve(l)
		cleanups = append(cleanups, func() { srv.Close() })
		c, err := cflink.Dial(network, l.Addr().String(), cflink.WithSystem("SYS1"))
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		cleanups = append(cleanups, func() { c.Close() })
		nodes = append(nodes, c)
	}
	return cf.NewDuplexed(clk, nil, nodes[0], nodes[1]), cleanup, nil
}

// cfScale sweeps goroutine counts over the hot CF command paths and
// reports throughput scaling: the in-process analog of the paper's
// claim that CF command rates grow with attached capacity (§3.3, §4).
// Workloads: simplex lock obtain/release, simplex cache read, simplex
// list write+pop, and the duplexed lock and cache-read paths.
func cfScale() error {
	const window = 300 * time.Millisecond
	sweep := []int{1, 2, 4, 8, 16}
	simplex := func() cf.Front { return cf.New("CF01", clk) }
	duplexed := func() cf.Front { return inprocPair() }
	rows := []struct {
		name  string
		front func() cf.Front
		setup func(cf.Front) (func(g, i int) error, error)
	}{
		{"lock", simplex, lockOps},
		{"cacheread", simplex, readOps},
		{"listqueue", simplex, listOps},
		{"duplexlock", duplexed, lockOps},
		{"duplexread", duplexed, readOps},
	}

	fmt.Printf("CF command-path scaling — ops/sec over a %v window per point (GOMAXPROCS=%d):\n",
		window, runtime.GOMAXPROCS(0))
	fmt.Printf("%12s", "GOROUTINES")
	for _, g := range sweep {
		fmt.Printf(" %11d", g)
	}
	fmt.Printf(" %9s\n", "SPEEDUP")

	for _, w := range rows {
		var base, last float64
		fmt.Printf("%12s", w.name)
		for _, g := range sweep {
			op, err := w.setup(w.front())
			if err != nil {
				return err
			}
			ops, err := measure(g, window, op)
			if err != nil {
				return fmt.Errorf("cfscale %s g=%d: %v", w.name, g, err)
			}
			if g == sweep[0] {
				base = ops
			}
			last = ops
			fmt.Printf(" %11.0f", ops)
			record("cf", fmt.Sprintf("%s_g%d_ops_per_sec", w.name, g), ops)
		}
		speedup := 0.0
		if base > 0 {
			speedup = last / base
		}
		fmt.Printf(" %8.2fx\n", speedup)
		record("cf", w.name+"_speedup_max", speedup)
	}
	record("cf", "window_ms", window.Milliseconds())
	return nil
}

// rmfBench measures what the RMF collector costs the Fig. 2 duplexed
// lock fast path (Fig2_DuplexedLockObtainParallel): the duplexlock
// parallel workload — 4 goroutines hammering Obtain/Release over a
// 4096-entry duplexed table — with the interval monitor off (A) versus
// sampling every 10ms into the in-memory ring (B). 10ms is 10x hotter
// than the monitor's default interval, so this is an upper bound on
// steady-state overhead. Repetitions alternate A/B ordering so thermal
// and scheduler drift hits both sides equally; medians are reported.
func rmfBench() error {
	const (
		window   = 300 * time.Millisecond
		gs       = 4
		reps     = 5
		interval = 10 * time.Millisecond
	)

	runOnce := func(withMonitor bool) (float64, error) {
		res, err := cfrm.New(cfrm.Policy{}, clk)
		if err != nil {
			return 0, err
		}
		op, err := lockOps(res.Front())
		if err != nil {
			return 0, err
		}
		if withMonitor {
			mon, err := rmf.New(rmf.Config{
				Farm:     "BENCH",
				Clock:    clk,
				Interval: interval,
				CFRM:     res,
			})
			if err != nil {
				return 0, err
			}
			mon.AddSystem("SYS1", rmf.SystemSource{})
			mon.Start()
			defer mon.Stop()
		}
		return measure(gs, window, op)
	}

	median := func(xs []float64) float64 {
		s := slices.Clone(xs)
		slices.Sort(s)
		return s[len(s)/2]
	}

	fmt.Printf("RMF collector overhead — duplexed lock Obtain/Release, %d goroutines, %v windows, %v sampling:\n",
		gs, window, interval)
	fmt.Printf("%5s %14s %14s\n", "REP", "BASE-OPS/S", "RMF-OPS/S")
	var base, with []float64
	for r := 0; r < reps; r++ {
		// Alternate which side runs first within each pair.
		sides := []bool{false, true}
		if r%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, withMon := range sides {
			ops, err := runOnce(withMon)
			if err != nil {
				return fmt.Errorf("rmf rep %d (monitor=%v): %v", r, withMon, err)
			}
			if withMon {
				with = append(with, ops)
			} else {
				base = append(base, ops)
			}
		}
		fmt.Printf("%5d %14.0f %14.0f\n", r, base[r], with[r])
	}
	baseMed, withMed := median(base), median(with)
	overhead := 0.0
	if baseMed > 0 {
		overhead = 100 * (baseMed - withMed) / baseMed
	}
	fmt.Printf("%5s %14.0f %14.0f   overhead %.2f%%\n", "MED", baseMed, withMed, overhead)
	record("rmf", "base_ops_per_sec", baseMed)
	record("rmf", "rmf_ops_per_sec", withMed)
	record("rmf", "overhead_pct", overhead)
	record("rmf", "goroutines", gs)
	record("rmf", "window_ms", window.Milliseconds())
	record("rmf", "interval_ms", interval.Milliseconds())
	record("rmf", "reps", reps)
	return nil
}

// transport measures what the cflink wire costs relative to an
// in-process facility. The duplexed lock, read and list workloads run
// over three node constructions:
//
//	inproc — two cf.New facilities in this process; the pipeline's
//	         route stage is a method call. This is the fast path the
//	         paper's "CF in an LPAR" configuration corresponds to.
//	unix   — two cflink servers on unix-domain loopback sockets; every
//	         command is a framed request/response round trip plus the
//	         codec, but no TCP stack.
//	tcp    — the same servers over 127.0.0.1 TCP; adds the loopback
//	         network stack, the closest stand-in for real coupling
//	         links this repo can measure.
//
// Slowdown is reported per mode relative to inproc ops/sec — the
// price of making the CF a separate failure domain.
func transport() error {
	const (
		window     = 300 * time.Millisecond
		goroutines = 4
	)
	sockDir, err := os.MkdirTemp("", "sysplexbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	modes := []struct {
		name  string
		front func() (*cf.Duplexed, func(), error)
	}{
		{"inproc", func() (*cf.Duplexed, func(), error) { return inprocPair(), func() {}, nil }},
		{"unix", func() (*cf.Duplexed, func(), error) { return linkFront("unix", sockDir) }},
		{"tcp", func() (*cf.Duplexed, func(), error) { return linkFront("tcp", "") }},
	}
	workloads := []struct {
		name  string
		setup func(cf.Front) (func(g, i int) error, error)
	}{
		{"lock", lockOps},
		{"read", readOps},
		{"list", listOps},
	}

	fmt.Printf("CF link transport cost — duplexed loopback matrix, %d goroutines, %v window (GOMAXPROCS=%d):\n",
		goroutines, window, runtime.GOMAXPROCS(0))
	fmt.Printf("%8s %12s %12s %12s %10s %10s\n",
		"WORKLOAD", "INPROC", "UNIX", "TCP", "UNIX x", "TCP x")

	for _, w := range workloads {
		opsBy := map[string]float64{}
		for _, m := range modes {
			ops, err := func() (float64, error) {
				d, cleanup, err := m.front()
				if err != nil {
					return 0, err
				}
				defer cleanup()
				op, err := w.setup(d)
				if err != nil {
					return 0, err
				}
				return measure(goroutines, window, op)
			}()
			if err != nil {
				return fmt.Errorf("transport %s/%s: %v", w.name, m.name, err)
			}
			opsBy[m.name] = ops
			record("transport", fmt.Sprintf("%s_%s_ops_per_sec", m.name, w.name), ops)
		}
		slowdown := func(name string) float64 {
			if opsBy[name] <= 0 {
				return 0
			}
			return opsBy["inproc"] / opsBy[name]
		}
		ux, tx := slowdown("unix"), slowdown("tcp")
		record("transport", w.name+"_unix_slowdown_x", ux)
		record("transport", w.name+"_tcp_slowdown_x", tx)
		fmt.Printf("%8s %12.0f %12.0f %12.0f %9.1fx %9.1fx\n",
			w.name, opsBy["inproc"], opsBy["unix"], opsBy["tcp"], ux, tx)
	}
	record("transport", "goroutines", goroutines)
	record("transport", "window_ms", window.Milliseconds())
	return nil
}

// batchBench is EXP-BATCH: the payoff of op batching on a transport CF.
// A duplexed lock structure runs over two cflink servers on unix-domain
// sockets — every CF command is a framed round trip — and the workload
// is commit-style bulk release: obtain a block of exclusive entries
// (untimed), then release them all, timed, four ways:
//
//	sync    — one Release command per entry, the pre-batching path;
//	batch1  — Batch envelopes carrying one release each, measuring the
//	          envelope's own overhead against the sync fast path;
//	batch8  — envelopes of 8;
//	batch32 — envelopes of 32, the commit bulk-release shape.
//
// Reported as released locks per second of release time. Batching N
// releases into one envelope removes N-1 link crossings, so ops/sec
// should scale with batch size until the CF's own work dominates.
func batchBench() error {
	const (
		window  = 400 * time.Millisecond
		entries = 4096
		block   = 128 // locks obtained (and then released) per cycle
	)
	ctx := context.Background()

	sockDir, err := os.MkdirTemp("", "sysplexbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	d, cleanup, err := linkFront("unix", sockDir)
	if err != nil {
		return err
	}
	defer cleanup()
	ls, err := d.AllocateLockStructure("IRLM", entries)
	if err != nil {
		return err
	}
	if err := ls.Connect(ctx, "SYS1"); err != nil {
		return err
	}

	// obtain grabs the cycle's block of entries exclusively (untimed
	// setup — the experiment times only the release side).
	obtain := func(base int) error {
		for i := 0; i < block; i++ {
			if _, err := ls.Obtain(ctx, (base+i)%entries, "SYS1", cf.Exclusive); err != nil {
				return err
			}
		}
		return nil
	}
	relCmds := func(base, off, n int) []cf.Cmd {
		cmds := make([]cf.Cmd, n)
		for i := 0; i < n; i++ {
			cmds[i] = cf.Cmd{Kind: cf.CmdLockRelease, Idx: (base + off + i) % entries, Conn: "SYS1", Mode: cf.Exclusive}
		}
		return cmds
	}
	batched := func(n int) func(base int) error {
		return func(base int) error {
			for off := 0; off < block; off += n {
				if err := cf.FirstErr(ls.Batch(ctx, relCmds(base, off, n))); err != nil {
					return err
				}
			}
			return nil
		}
	}
	modes := []struct {
		name    string
		release func(base int) error
	}{
		{"sync", func(base int) error {
			for i := 0; i < block; i++ {
				if err := ls.Release(ctx, (base+i)%entries, "SYS1", cf.Exclusive); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch1", batched(1)},
		{"batch8", batched(8)},
		{"batch32", batched(32)},
	}

	fmt.Printf("CF op batching — duplexed lock bulk release over unix-socket cflink, %v of timed release per mode (GOMAXPROCS=%d):\n",
		window, runtime.GOMAXPROCS(0))
	fmt.Printf("%8s %14s %10s\n", "MODE", "RELEASES/S", "vs SYNC")
	opsBy := map[string]float64{}
	base := 0
	for _, m := range modes {
		// Best of three windows: single short windows wobble by a few
		// percent on loopback sockets, and the best run is the one
		// with the least scheduler interference in both directions.
		var ops float64
		for rep := 0; rep < 3; rep++ {
			var (
				timed time.Duration
				n     int64
			)
			for timed < window {
				if err := obtain(base); err != nil {
					return fmt.Errorf("batch %s: obtain: %v", m.name, err)
				}
				t0 := time.Now()
				if err := m.release(base); err != nil {
					return fmt.Errorf("batch %s: %v", m.name, err)
				}
				timed += time.Since(t0)
				n += block
				base = (base + block) % entries
			}
			if o := float64(n) / timed.Seconds(); o > ops {
				ops = o
			}
		}
		opsBy[m.name] = ops
		record("batch", m.name+"_ops_per_sec", ops)
		rel := 0.0
		if opsBy["sync"] > 0 {
			rel = ops / opsBy["sync"]
		}
		record("batch", m.name+"_vs_sync_x", rel)
		fmt.Printf("%8s %14.0f %9.2fx\n", m.name, ops, rel)
	}
	record("batch", "block", block)
	record("batch", "window_ms", window.Milliseconds())
	return nil
}
