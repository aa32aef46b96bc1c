// Command sysplexbench regenerates the paper's figures and derived
// experiments as human-readable tables.
//
// Usage:
//
//	sysplexbench -exp all            # everything
//	sysplexbench -exp fig3           # one experiment
//	sysplexbench -exp fig3 -systems 16 -simtime 5s
//
// Experiments: fig1 fig2 fig3 fig4 ds avail grow query false ext duplex cfkill logr cfscale ctxpath transport rmf restart
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sysplex"
	"sysplex/internal/cf"
	"sysplex/internal/cflink"
	"sysplex/internal/cfrm"
	"sysplex/internal/dasd"
	"sysplex/internal/logr"
	"sysplex/internal/racf"
	"sysplex/internal/rmf"
	"sysplex/internal/scalemodel"
	"sysplex/internal/timer"
	"sysplex/internal/vclock"
)

var (
	expFlag     = flag.String("exp", "all", "experiment: fig1,fig2,fig3,fig4,ds,avail,grow,query,false,ext,duplex,cfkill,logr,cfscale,ctxpath,transport,batch,rmf,restart,all")
	systemsFlag = flag.Int("systems", 32, "max sysplex members for fig3")
	simtimeFlag = flag.Duration("simtime", 5*time.Second, "DES measurement window")
	seedFlag    = flag.Int64("seed", 1996, "DES seed")
	jsonFlag    = flag.String("json", "", "also write machine-readable results to this path")
	procsFlag   = flag.String("procs", "", "GOMAXPROCS values to sweep, comma-separated (e.g. 1,4); empty = leave as-is")
)

// results accumulates machine-readable experiment output for -json.
var (
	resultsMu sync.Mutex
	results   = map[string]map[string]any{}
	// recPrefix is prepended to every recorded key; the -procs sweep
	// sets it to "pN_" so each GOMAXPROCS point keeps its own entries
	// in the merged JSON instead of clobbering the previous point's.
	recPrefix string
)

// record stores one measured value for the -json output.
func record(exp, key string, value any) {
	resultsMu.Lock()
	defer resultsMu.Unlock()
	if results[exp] == nil {
		results[exp] = map[string]any{}
	}
	results[exp][recPrefix+key] = value
}

func main() {
	// Child role of EXP-RESTART: this binary re-executed as the
	// workload process the parent SIGKILLs.
	if spec := os.Getenv(restartChildEnv); spec != "" {
		restartChild(spec)
		return
	}
	flag.Parse()
	run := map[string]func() error{
		"fig1":      fig1,
		"fig2":      fig2,
		"fig3":      fig3,
		"fig4":      fig4,
		"ds":        ds,
		"avail":     avail,
		"grow":      grow,
		"query":     query,
		"false":     falseContention,
		"ext":       extensions,
		"duplex":    duplexCost,
		"cfkill":    cfKill,
		"logr":      logrBench,
		"cfscale":   cfScale,
		"ctxpath":   ctxPath,
		"transport": transport,
		"batch":     batchBench,
		"rmf":       rmfBench,
		"restart":   restartBench,
	}
	order := []string{"fig1", "fig2", "fig3", "fig4", "ds", "avail", "grow", "query", "false", "ext", "duplex", "cfkill", "logr", "cfscale", "ctxpath", "transport", "batch", "rmf", "restart"}
	want := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		want = order
	}
	var procs []int
	if *procsFlag != "" {
		for _, s := range strings.Split(*procsFlag, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &p); err != nil || p <= 0 {
				fmt.Fprintf(os.Stderr, "bad -procs value %q\n", s)
				os.Exit(2)
			}
			procs = append(procs, p)
		}
	}
	runAll := func() {
		for _, name := range want {
			fn, ok := run[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
			fmt.Printf("==== %s ====\n", strings.ToUpper(name))
			if err := fn(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	switch {
	case len(procs) == 0:
		runAll()
	case len(procs) == 1:
		runtime.GOMAXPROCS(procs[0])
		runAll()
	default:
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			resultsMu.Lock()
			recPrefix = fmt.Sprintf("p%d_", p)
			resultsMu.Unlock()
			fmt.Printf("######## GOMAXPROCS=%d ########\n", p)
			runAll()
		}
	}
	if *jsonFlag != "" {
		resultsMu.Lock()
		// Merge into the existing file so separate runs append rather
		// than clobber each other's experiments (e.g. cfscale then
		// ctxpath, both into BENCH_cf.json).
		merged := map[string]map[string]any{}
		if prev, rerr := os.ReadFile(*jsonFlag); rerr == nil {
			_ = json.Unmarshal(prev, &merged)
		}
		for exp, kv := range results {
			if merged[exp] == nil {
				merged[exp] = map[string]any{}
			}
			for k, v := range kv {
				merged[exp][k] = v
			}
		}
		raw, err := json.MarshalIndent(merged, "", "  ")
		resultsMu.Unlock()
		if err == nil {
			err = os.WriteFile(*jsonFlag, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonFlag, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonFlag)
	}
}

func desParams() scalemodel.Params {
	p := scalemodel.DefaultParams()
	p.SimTime = *simtimeFlag
	p.Seed = *seedFlag
	return p
}

func bankPrograms(p *sysplex.Sysplex) {
	p.RegisterProgram("DEPOSIT", 1, func(tx *sysplex.Tx, input []byte) ([]byte, error) {
		key := string(input)
		v, _, err := tx.Get("ACCT", key)
		if err != nil {
			return nil, err
		}
		var n int
		fmt.Sscanf(string(v), "%d", &n)
		if err := tx.Put("ACCT", key, []byte(fmt.Sprintf("%d", n+1))); err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", n+1)), nil
	})
	p.RegisterProgram("BALANCE", 1, func(tx *sysplex.Tx, input []byte) ([]byte, error) {
		v, ok, err := tx.Get("ACCT", string(input))
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte("0"), nil
		}
		return v, nil
	})
}

// fig1 builds the Figure 1 system model and reports its inventory.
func fig1() error {
	cfg := sysplex.DefaultConfig("PLEX1", 0)
	cfg.Background = false
	cfg.Systems = []sysplex.SystemConfig{
		{Name: "CMOS1", CPUs: 1}, {Name: "CMOS2", CPUs: 4},
		{Name: "ES9000", CPUs: 10, MIPSPerCPU: 45},
	}
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	fmt.Println("Figure 1 'System Model' — constructed configuration:")
	fmt.Printf("  sysplex %-8s systems=%v (heterogeneous, 1-10 way)\n", p.Name(), p.ActiveSystems())
	fmt.Printf("  shared volumes: %v (4 channel paths per system)\n", p.Farm().Volumes())
	fmt.Printf("  coupling facility structures: %v\n", p.Facility().StructureNames())
	s1, _ := p.System("CMOS1")
	s2, _ := p.System("ES9000")
	a, b := s1.TOD().Stamp(), s2.TOD().Stamp()
	fmt.Printf("  sysplex timer: cross-system stamps strictly ordered: %v < %v : %v\n",
		a.UnixNano(), b.UnixNano(), a.Before(b))
	vol, _ := p.Farm().Volume("SYSP01")
	vol.VaryPath("CMOS1", 0, false)
	_, err = vol.Read("CMOS1", 0)
	fmt.Printf("  path failover after losing 1 of 4 paths: I/O ok = %v\n", err == nil)
	return nil
}

// fig2 exercises the Figure 2 data-sharing architecture and reports
// operation counts/latencies.
func fig2() error {
	cfg := sysplex.DefaultConfig("PLEX1", 2)
	cfg.Background = false
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)
	// Both systems update the same 16 accounts in alternating rounds:
	// 100% inter-system read/write sharing.
	for i := 0; i < 500; i++ {
		sys := "SYS1"
		if (i/16)%2 == 1 {
			sys = "SYS2"
		}
		if _, err := p.Submit(context.Background(), sys, "DEPOSIT", []byte(fmt.Sprintf("acct%d", i%16))); err != nil {
			return err
		}
	}
	fmt.Println("Figure 2 'Data-Sharing Architecture' — 500 txs alternating between 2 systems, 16 shared accounts:")
	for _, st := range p.Stats() {
		fmt.Printf("  %-5s locks=%d fast-grants=%d contentions=%d false=%d negotiations=%d\n",
			st.System, st.Locks.Locks, st.Locks.FastGrants, st.Locks.Contentions,
			st.Locks.FalseContentions, st.Locks.Negotiations)
	}
	s1, _ := p.System("SYS1")
	s2, _ := p.System("SYS2")
	fmt.Printf("  buffer pools: SYS1 %+v\n", s1.Engine().PoolStats())
	fmt.Printf("                SYS2 %+v\n", s2.Engine().PoolStats())
	m := p.Facility().Metrics()
	fmt.Printf("  CF cross-invalidates: %d, cache hits: %d, misses: %d\n",
		m.Counter("cf.cache.xi").Value(), m.Counter("cf.cache.hit").Value(), m.Counter("cf.cache.miss").Value())
	fmt.Printf("  CF command latency: %s\n", m.Histogram("cf.cmd.latency").Snapshot())
	return nil
}

// fig3 prints the scalability curves and the §4 claims.
func fig3() error {
	params := desParams()
	fmt.Printf("Figure 3 'Parallel Sysplex Scalability' — DES, %v window, seed %d\n", params.SimTime, params.Seed)
	fmt.Printf("%6s %10s %10s %10s\n", "CPUs", "IDEAL", "TCMP", "SYSPLEX")
	for _, pt := range scalemodel.Figure3(*systemsFlag, params) {
		fmt.Printf("%6d %10.2f %10.2f %10.2f\n", pt.CPUs, pt.Ideal, pt.TCMP, pt.Sysplex)
	}
	claims := scalemodel.Claims(params)
	fmt.Printf("\n§4 claims (paper → measured):\n")
	fmt.Printf("  1→2 system data-sharing cost:   <18%%  → %.1f%%\n", 100*claims.DataSharingCost)
	fmt.Printf("  incremental cost per system:    <0.5%% → %.2f%% (worst step, 3..32)\n", 100*claims.MaxIncrementalCost)
	fmt.Printf("  effective capacity at 32 systems: near-linear → %.1f%% of ideal\n", 100*claims.Effective32)
	return nil
}

// fig4 runs the full software stack and prints the distribution.
func fig4() error {
	cfg := sysplex.DefaultConfig("PLEX1", 4)
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("acct%d", i%64))); err != nil {
			return err
		}
	}
	fmt.Printf("Figure 4 'Software Structure' — %d user transactions via generic logon (single image):\n", n)
	fmt.Printf("%6s %10s %10s %10s %10s %10s\n", "SYSTEM", "SUBMITTED", "LOCAL", "ROUTED-IN", "COMMITS", "UTIL")
	for _, st := range p.Stats() {
		fmt.Printf("%6s %10d %10d %10d %10d %9.0f%%\n",
			st.System, st.Region.Submitted, st.Region.LocalRuns, st.Region.RoutedIn, st.DB.Commits, 100*st.Util)
	}
	sessions, _ := p.Network().Sessions(sysplex.GenericCICS)
	fmt.Printf("  residual bound sessions by system: %v\n", sessions)
	return nil
}

// ds prints the data-sharing vs partitioning skew comparison.
func ds() error {
	params := desParams()
	const m = 4
	fmt.Printf("§2.3 data sharing vs data partitioning — %d systems, DES (%v window)\n", m, params.SimTime)
	fmt.Printf("%12s %6s %12s %12s %10s %10s %14s\n",
		"MODE", "SKEW", "OFFERED-TPS", "ACHIEVED", "RESP(ms)", "P99(ms)", "UTIL[min,max]")
	for _, skew := range []float64{0.25, 0.40, 0.60, 0.80} {
		offered := 0.7 * m * 1000 / params.BaseServiceMS
		for _, mode := range []string{"sharing", "partitioned"} {
			r := scalemodel.MeasureSkew(mode, m, skew, offered, params)
			fmt.Printf("%12s %6.2f %12.0f %12.0f %10.2f %10.2f   [%4.0f%%,%4.0f%%]\n",
				r.Mode, r.Skew, r.OfferedTPS, r.Throughput, r.MeanRespMS, r.P99RespMS,
				100*r.UtilMin, 100*r.UtilMax)
		}
	}
	return nil
}

// avail runs the failover experiment on the functional stack.
func avail() error {
	cfg := sysplex.DefaultConfig("PLEX1", 3)
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)

	var stop, attempts, failures atomic.Int64
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			for i := 0; stop.Load() == 0; i++ {
				attempts.Add(1)
				if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("u%d-%d", w, i%8))); err != nil {
					failures.Add(1)
				}
			}
			done <- struct{}{}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	kill := time.Now()
	p.KillSystem("SYS2")
	for !p.XCF().IsFailed("SYS2") {
		time.Sleep(time.Millisecond)
	}
	detected := time.Since(kill)
	for len(p.RecoveryReports()) == 0 {
		time.Sleep(time.Millisecond)
	}
	recovered := time.Since(kill)
	time.Sleep(300 * time.Millisecond)
	stop.Store(1)
	for w := 0; w < 4; w++ {
		<-done
	}
	att, fail := attempts.Load(), failures.Load()
	fmt.Println("§2.5 continuous availability — kill 1 of 3 systems under load:")
	fmt.Printf("  failure detected (heartbeat) in %v, peer recovery complete in %v\n", detected.Round(time.Millisecond), recovered.Round(time.Millisecond))
	for _, rep := range p.RecoveryReports() {
		fmt.Printf("  recovery: failed=%s redo=%d retained-locks-freed=%d\n", rep.FailedSystem, rep.RedoApplied, rep.LocksFreed)
	}
	e, _ := p.ARM().Element("DB2.SYS2")
	fmt.Printf("  ARM restarted DB2.SYS2 on %s (restart group with CICS.SYS2)\n", e.System)
	fmt.Printf("  availability across the event: %.2f%% (%d/%d transactions)\n",
		100*(1-float64(fail)/float64(att)), att-fail, att)
	return nil
}

// grow adds a system to a loaded sysplex and shows the ramp.
func grow() error {
	cfg := sysplex.DefaultConfig("PLEX1", 2)
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)
	var stop, failures atomic.Int64
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		go func() {
			for i := 0; stop.Load() == 0; i++ {
				if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("g%d-%d", w, i%8))); err != nil {
					failures.Add(1)
				}
			}
			done <- struct{}{}
		}()
	}
	time.Sleep(250 * time.Millisecond)
	before := snapshotSubmitted(p)
	if _, err := p.AddSystem(context.Background(), sysplex.SystemConfig{Name: "SYS3", CPUs: 1}); err != nil {
		return err
	}
	time.Sleep(500 * time.Millisecond)
	stop.Store(1)
	for w := 0; w < 4; w++ {
		<-done
	}
	after := snapshotSubmitted(p)
	fmt.Println("§2.4 granular growth — SYS3 introduced into a running 2-system sysplex:")
	fmt.Printf("%6s %18s %18s\n", "SYSTEM", "TX BEFORE ADD", "TX AFTER ADD")
	for _, sys := range p.ActiveSystems() {
		fmt.Printf("%6s %18d %18d\n", sys, before[sys], after[sys]-before[sys])
	}
	fmt.Printf("  failures during growth: %d (non-disruptive), data repartitioned: 0 keys\n", failures.Load())
	return nil
}

func snapshotSubmitted(p *sysplex.Sysplex) map[string]int64 {
	out := map[string]int64{}
	for _, st := range p.Stats() {
		out[st.System] = st.Region.Submitted
	}
	return out
}

// query demonstrates decision-support sub-query splitting.
func query() error {
	cfg := sysplex.DefaultConfig("PLEX1", 4)
	cfg.Background = false
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)
	const rows = 500
	for i := 0; i < rows; i++ {
		if _, err := p.Submit(context.Background(), "SYS1", "DEPOSIT", []byte(fmt.Sprintf("row%05d", i))); err != nil {
			return err
		}
	}
	start := time.Now()
	res, err := p.ParallelQuery(context.Background(), "ACCT", "sum", "row")
	if err != nil {
		return err
	}
	par := time.Since(start)
	s1, _ := p.System("SYS1")
	start = time.Now()
	serial, err := s1.Region().ParallelQuery(context.Background(), []string{"SYS1"}, "ACCT", "sum", "row")
	if err != nil {
		return err
	}
	ser := time.Since(start)
	fmt.Println("§2.3 decision support — complex query split into sub-queries:")
	fmt.Printf("  serial (1 system):    count=%d sum=%d in %v\n", serial.Count, serial.Sum, ser)
	fmt.Printf("  parallel (%d parts):   count=%d sum=%d in %v\n", res.Parts, res.Count, res.Sum, par)
	fmt.Printf("  identical answers: %v\n", res.Count == serial.Count && res.Sum == serial.Sum)
	return nil
}

// falseContention sweeps the lock table size.
func falseContention() error {
	fmt.Println("§3.3.1 false lock contention vs lock table size (48 resources held by SYS1, 5000 probes by SYS2):")
	fmt.Printf("%10s %16s\n", "ENTRIES", "FALSE-CONTENTION")
	for _, entries := range []int{32, 64, 256, 1024, 4096, 16384} {
		fac := cf.New("CF01", vclock.Real())
		ls, err := fac.AllocateLockStructure("IRLM", entries)
		if err != nil {
			return err
		}
		// Bench setup on a fresh, healthy facility: cannot fail.
		_ = ls.Connect(context.Background(), "SYS1")
		_ = ls.Connect(context.Background(), "SYS2")
		for i := 0; i < 48; i++ {
			_, _ = ls.Obtain(context.Background(), ls.HashResource(fmt.Sprintf("HELD.%d", i)), "SYS1", cf.Exclusive)
		}
		falseHits := 0
		const probes = 5000
		for i := 0; i < probes; i++ {
			e := ls.HashResource(fmt.Sprintf("PROBE.%d", i))
			r, err := ls.Obtain(context.Background(), e, "SYS2", cf.Exclusive)
			if err != nil {
				return err
			}
			if r.Granted {
				_ = ls.Release(context.Background(), e, "SYS2", cf.Exclusive)
			} else {
				falseHits++
			}
		}
		fmt.Printf("%10d %15.2f%%\n", entries, 100*float64(falseHits)/probes)
	}
	return nil
}

// extensions demonstrates the DESIGN.md §7 features: CF structure
// rebuild under live state, the JES2-style shared job queue with
// failure takeover, and the RACF-style sysplex-coherent security cache.
func extensions() error {
	cfg := sysplex.DefaultConfig("PLEX1", 3)
	p, err := sysplex.New(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer p.Stop()
	bankPrograms(p)

	// -- JES2-style batch over the CF list structure --
	p.RegisterJobClass("REPORT", func(payload []byte) ([]byte, error) {
		return append([]byte("ok:"), payload...), nil
	})
	var ids []string
	for i := 0; i < 12; i++ {
		id, err := p.SubmitJob(context.Background(), "REPORT", []byte(fmt.Sprintf("part%d", i)))
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	ranOn := map[string]int{}
	for _, id := range ids {
		job, err := p.WaitJob(context.Background(), id, 10*time.Second)
		if err != nil {
			return err
		}
		ranOn[job.RanOn]++
	}
	fmt.Printf("JES2-style shared queue: 12 jobs executed by %v\n", ranOn)

	// -- RACF-style sysplex-wide security --
	s1, _ := p.System("SYS1")
	s3, _ := p.System("SYS3")
	s1.Security().Define(context.Background(), racf.Profile{
		Resource: "PAYROLL", UACC: racf.None,
		Permits: map[string]racf.Access{"ALICE": racf.Update},
	})
	ok1, _ := s3.Security().Check(context.Background(), "ALICE", "PAYROLL", racf.Update)
	s3.Security().Permit(context.Background(), "PAYROLL", "ALICE", racf.None)
	ok2, _ := s1.Security().Check(context.Background(), "ALICE", "PAYROLL", racf.Read)
	fmt.Printf("RACF-style security: grant visible on SYS3=%v; revoke on SYS3 effective on SYS1 instantly (allowed=%v)\n", ok1, ok2)

	// -- CF structure rebuild under live state --
	for i := 0; i < 20; i++ {
		p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte("rebuildkey"))
	}
	oldName := p.Facility().Name()
	start := time.Now()
	if err := p.RebuildCouplingFacility(); err != nil {
		return err
	}
	out, err := p.SubmitViaLogon(context.Background(), "BALANCE", []byte("rebuildkey"))
	if err != nil {
		return err
	}
	fmt.Printf("CF structure rebuild: %s → %s in %v; data intact (balance=%s), old CF retired\n",
		oldName, p.Facility().Name(), time.Since(start).Round(time.Millisecond), out)
	return nil
}

// duplexCost measures the per-command cost of structure duplexing:
// the same lock-command stream against a simplex CFRM policy and a
// duplexed one, with an injected per-command CF access latency so the
// mirrored write to the secondary is visible in the totals.
func duplexCost() error {
	fmt.Println("CFRM duplexing cost — lock obtain/release pairs, simplex vs duplexed:")
	fmt.Printf("%10s %10s %8s %12s %10s %14s\n", "MODE", "CF-LAT", "PAIRS", "ELAPSED", "NS/PAIR", "MIRRORED-CMDS")
	for _, lat := range []time.Duration{0, 2 * time.Microsecond} {
		var base time.Duration
		ops := 20000
		if lat > 0 {
			// Injected per-command CF access latency is slept for real;
			// keep the op count low so the mode finishes quickly.
			ops = 500
		}
		for _, mode := range []cfrm.Mode{cfrm.ModeSimplex, cfrm.ModeDuplexed} {
			m, err := cfrm.New(cfrm.Policy{Mode: mode, SyncLatency: lat}, nil)
			if err != nil {
				return err
			}
			ls, err := m.Front().AllocateLockStructure("IRLM", 1024)
			if err != nil {
				return err
			}
			if err := ls.Connect(context.Background(), "SYS1"); err != nil {
				return err
			}
			start := time.Now()
			for i := 0; i < ops; i++ {
				e := i % 1024
				if _, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil {
					return err
				}
				if err := ls.Release(context.Background(), e, "SYS1", cf.Exclusive); err != nil {
					return err
				}
			}
			elapsed := time.Since(start)
			mirrored := m.Metrics().Histogram("cfrm.duplex.fanout").Snapshot().Count
			label := "simplex"
			if mode == cfrm.ModeDuplexed {
				label = "duplexed"
			}
			fmt.Printf("%10s %10v %8d %12v %10d %14d\n",
				label, lat, ops, elapsed.Round(time.Millisecond), elapsed.Nanoseconds()/int64(ops), mirrored)
			if mode == cfrm.ModeSimplex {
				base = elapsed
			} else if base > 0 {
				fmt.Printf("  duplexing overhead at CF latency %v: %.1f%% (every mutating command is written to both facilities)\n",
					lat, 100*(float64(elapsed)/float64(base)-1))
			}
		}
	}
	return nil
}

// cfKill measures the service blackout when the primary coupling
// facility is killed under full-stack transaction load: with structure
// duplexing CFRM fails over in-line (zero blackout, zero failed
// transactions); in simplex mode service is down until an operator
// rebuild moves the structures to a fresh facility.
func cfKill() error {
	fmt.Println("CF failure blackout — kill the primary CF under load, duplexed vs simplex:")
	fmt.Printf("%10s %8s %8s %14s %12s %10s %9s\n",
		"MODE", "TX-OK", "TX-FAIL", "AVAILABILITY", "BLACKOUT", "FAILOVERS", "RETRIED")
	for _, mode := range []cfrm.Mode{cfrm.ModeDuplexed, cfrm.ModeSimplex} {
		cfg := sysplex.DefaultConfig("PLEX1", 3)
		cfg.CF.Mode = mode
		p, err := sysplex.New(context.Background(), cfg)
		if err != nil {
			return err
		}
		bankPrograms(p)

		var stop, ok, fail, lastFailNS atomic.Int64
		done := make(chan struct{})
		for w := 0; w < 4; w++ {
			w := w
			go func() {
				for i := 0; stop.Load() == 0; i++ {
					if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("k%d-%d", w, i%8))); err != nil {
						fail.Add(1)
						lastFailNS.Store(time.Now().UnixNano())
					} else {
						ok.Add(1)
					}
				}
				done <- struct{}{}
			}()
		}
		time.Sleep(200 * time.Millisecond)
		kill := time.Now()
		p.Facility().Fail()
		if mode == cfrm.ModeSimplex {
			// Simplex: service stays down until the operator rebuilds.
			time.Sleep(100 * time.Millisecond)
			if err := p.RebuildCouplingFacility(); err != nil {
				return err
			}
		} else {
			// The next CF command from the load trips the in-line
			// failover; wait for it, then for re-duplex to complete.
			for p.CFRM().Status().Failovers == 0 {
				time.Sleep(time.Millisecond)
			}
			if err := p.CFRM().WaitDuplexed(10 * time.Second); err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Millisecond)
		stop.Store(1)
		for w := 0; w < 4; w++ {
			<-done
		}
		blackout := time.Duration(0)
		if last := lastFailNS.Load(); last > kill.UnixNano() {
			blackout = time.Duration(last - kill.UnixNano())
		}
		st := p.CFRM().Status()
		label := "duplexed"
		if mode == cfrm.ModeSimplex {
			label = "simplex"
		}
		total := ok.Load() + fail.Load()
		fmt.Printf("%10s %8d %8d %13.2f%% %12v %10d %9d\n",
			label, ok.Load(), fail.Load(), 100*float64(ok.Load())/float64(total),
			blackout.Round(time.Millisecond), st.Failovers, st.Retried)
		if mode == cfrm.ModeDuplexed {
			fmt.Printf("  re-duplexed into %s after failover (state=%s)\n", st.Secondary, st.State)
		}
		p.Stop()
	}
	return nil
}

// logrBench measures the System Logger: merged-stream write latency and
// offload throughput under concurrent multi-system load, with the
// primary CF killed mid-stream (FailAfter) under a duplexing policy.
// The pass/fail criterion is exactly-once delivery: after the kill, a
// browse must return every written record exactly once in timestamp
// order.
func logrBench() error {
	const (
		nSystems      = 3
		writersPerSys = 2
		recsPerWriter = 2000
	)
	clock := vclock.Real()
	cfres, err := cfrm.New(cfrm.Policy{Mode: cfrm.ModeDuplexed}, clock)
	if err != nil {
		return err
	}
	farm := dasd.NewFarm(clock)
	if _, err := farm.AddVolume("LOGV", 262144, 2); err != nil {
		return err
	}
	tmr := timer.New(clock)
	streams := make([]*logr.Stream, nSystems)
	shared := logr.Config{Farm: farm, Volume: "LOGV", Timer: tmr, Clock: clock}
	var mgr0 *logr.Manager
	for i := 0; i < nSystems; i++ {
		cfg := shared
		cfg.System = fmt.Sprintf("SYS%d", i+1)
		cfg.Front = cfres.Front()
		if mgr0 != nil {
			cfg.Metrics = mgr0.Metrics()
		}
		m, err := logr.New(cfg)
		if err != nil {
			return err
		}
		if mgr0 == nil {
			mgr0 = m
		}
		s, err := m.Connect(context.Background(), logr.StreamSpec{Name: "BENCH.MERGED", InterimEntries: 256, OffloadBlocks: 256})
		if err != nil {
			return err
		}
		streams[i] = s
	}

	total := nSystems * writersPerSys * recsPerWriter
	// Kill the primary roughly mid-stream: each Write costs a handful of
	// CF commands, so scale the fuse to land inside the run.
	cfres.Primary().FailAfter(total * 2)

	var mu sync.Mutex
	want := make(map[string]bool, total)
	var wg sync.WaitGroup
	var writeErr atomic.Int64
	start := time.Now()
	for i := 0; i < nSystems; i++ {
		for w := 0; w < writersPerSys; w++ {
			i, w := i, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < recsPerWriter; r++ {
					p := fmt.Sprintf("SYS%d/w%d/%06d", i+1, w, r)
					if _, err := streams[i].Write(context.Background(), []byte(p)); err != nil {
						writeErr.Add(1)
						return
					}
					mu.Lock()
					want[p] = true
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if writeErr.Load() > 0 {
		return fmt.Errorf("logr: %d writes failed", writeErr.Load())
	}

	cur, err := streams[0].Browse(context.Background())
	if err != nil {
		return err
	}
	seen := make(map[string]bool, total)
	dups, misordered := 0, 0
	prev := ""
	for {
		r, ok := cur.Next()
		if !ok {
			break
		}
		if r.Key <= prev {
			misordered++
		}
		prev = r.Key
		if seen[string(r.Data)] {
			dups++
		}
		seen[string(r.Data)] = true
	}
	lost := 0
	for p := range want {
		if !seen[p] {
			lost++
		}
	}

	m := mgr0.Metrics()
	wl := m.Histogram("logr.write.latency").Snapshot()
	offRecords := m.Counter("logr.offload.records").Value()
	offBytes := m.Counter("logr.offload.bytes").Value()
	offDur := m.Histogram("logr.offload.duration").Snapshot()
	st := cfres.Status()
	offMBps := 0.0
	if offDur.Sum > 0 {
		offMBps = float64(offBytes) / offDur.Sum / (1 << 20)
	}
	stats, err := streams[0].Stats(context.Background())
	if err != nil {
		return err
	}

	fmt.Printf("System Logger — %d systems × %d writers × %d records, primary CF killed mid-stream (duplexed):\n",
		nSystems, writersPerSys, recsPerWriter)
	fmt.Printf("  writes: %d in %v (%.0f/s); latency %s\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), wl)
	fmt.Printf("  offload: %d records, %.1f MiB in %d passes (%.1f MiB/s); interim residual %d\n",
		offRecords, float64(offBytes)/(1<<20), m.Counter("logr.offload.count").Value(), offMBps, stats.Interim)
	fmt.Printf("  CF: failovers=%d commands-retried=%d (state=%s)\n", st.Failovers, st.Retried, st.State)
	fmt.Printf("  exactly-once across the kill: lost=%d duplicated=%d misordered=%d\n", lost, dups, misordered)
	if st.Failovers == 0 {
		fmt.Println("  warning: the CF kill never tripped — fuse too long for this run")
	}
	if lost != 0 || dups != 0 || misordered != 0 {
		return fmt.Errorf("logr: merged stream corrupt: lost=%d dup=%d misordered=%d", lost, dups, misordered)
	}

	record("logr", "systems", nSystems)
	record("logr", "writers", nSystems*writersPerSys)
	record("logr", "writes", total)
	record("logr", "elapsed_ms", elapsed.Milliseconds())
	record("logr", "writes_per_sec", float64(total)/elapsed.Seconds())
	record("logr", "write_p50_us", wl.P50*1e6)
	record("logr", "write_p95_us", wl.P95*1e6)
	record("logr", "write_p99_us", wl.P99*1e6)
	record("logr", "offload_records", offRecords)
	record("logr", "offload_bytes", offBytes)
	record("logr", "offload_mib_per_sec", offMBps)
	record("logr", "cf_failovers", st.Failovers)
	record("logr", "cf_retried", st.Retried)
	record("logr", "lost", lost)
	record("logr", "duplicated", dups)
	record("logr", "misordered", misordered)
	return nil
}

// cfScale sweeps goroutine counts over the hot CF command paths and
// reports throughput scaling: the in-process analog of the paper's
// claim that CF command rates grow with attached capacity (§3.3, §4).
// Workloads: simplex lock obtain/release, simplex cache read, simplex
// list write+pop, and the duplexed lock and cache-read paths.
func cfScale() error {
	const window = 300 * time.Millisecond
	sweep := []int{1, 2, 4, 8, 16}

	type workload struct {
		name string
		// setup builds the structure set and returns the per-goroutine
		// op body (g = goroutine id, i = iteration).
		setup func() (func(g, i int) error, error)
	}

	workloads := []workload{
		{"lock", func() (func(g, i int) error, error) {
			fac := cf.New("CF01", vclock.Real())
			ls, err := fac.AllocateLockStructure("IRLM", 4096)
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
		}},
		{"cacheread", func() (func(g, i int) error, error) {
			fac := cf.New("CF01", vclock.Real())
			cs, err := fac.AllocateCacheStructure("GBP0", 8192)
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
		}},
		{"listqueue", func() (func(g, i int) error, error) {
			fac := cf.New("CF01", vclock.Real())
			ls, err := fac.AllocateListStructure("WORKQ", 64, 0, 1<<20)
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
		}},
		{"duplexlock", func() (func(g, i int) error, error) {
			d := cf.NewDuplexed(vclock.Real(), nil,
				cf.New("CF01", vclock.Real()), cf.New("CF02", vclock.Real()))
			ls, err := d.AllocateLockStructure("IRLM", 4096)
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
		}},
		{"duplexread", func() (func(g, i int) error, error) {
			d := cf.NewDuplexed(vclock.Real(), nil,
				cf.New("CF01", vclock.Real()), cf.New("CF02", vclock.Real()))
			cs, err := d.AllocateCacheStructure("GBP0", 8192)
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
		}},
	}

	fmt.Printf("CF command-path scaling — ops/sec over a %v window per point (GOMAXPROCS=%d):\n",
		window, runtime.GOMAXPROCS(0))
	fmt.Printf("%12s", "GOROUTINES")
	for _, g := range sweep {
		fmt.Printf(" %11d", g)
	}
	fmt.Printf(" %9s\n", "SPEEDUP")

	for _, w := range workloads {
		var base float64
		fmt.Printf("%12s", w.name)
		var last float64
		for _, g := range sweep {
			op, err := w.setup()
			if err != nil {
				return err
			}
			var total atomic.Int64
			var stop atomic.Int64
			var opErr atomic.Value
			var wg sync.WaitGroup
			for k := 0; k < g; k++ {
				k := k
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := int64(0)
					for i := 0; stop.Load() == 0; i++ {
						if err := op(k, i); err != nil {
							opErr.Store(err)
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
			if e := opErr.Load(); e != nil {
				return fmt.Errorf("cfscale %s g=%d: %v", w.name, g, e)
			}
			ops := float64(total.Load()) / elapsed.Seconds()
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
	record("cf", "gomaxprocs", runtime.GOMAXPROCS(0))
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
		res, err := cfrm.New(cfrm.Policy{}, vclock.Real())
		if err != nil {
			return 0, err
		}
		ls, err := res.Front().AllocateLockStructure("IRLM", 4096)
		if err != nil {
			return 0, err
		}
		if err := ls.Connect(context.Background(), "SYS1"); err != nil {
			return 0, err
		}
		if withMonitor {
			mon, err := rmf.New(rmf.Config{
				Farm:     "BENCH",
				Clock:    vclock.Real(),
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
		var total, stopFlag atomic.Int64
		var opErr atomic.Value
		var wg sync.WaitGroup
		for k := 0; k < gs; k++ {
			k := k
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := int64(0)
				for i := 0; stopFlag.Load() == 0; i++ {
					e := (k*131 + i) % 4096
					if _, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil {
						opErr.Store(err)
						break
					}
					if err := ls.Release(context.Background(), e, "SYS1", cf.Exclusive); err != nil {
						opErr.Store(err)
						break
					}
					n++
				}
				total.Add(n)
			}()
		}
		start := time.Now()
		time.Sleep(window)
		stopFlag.Store(1)
		wg.Wait()
		if e := opErr.Load(); e != nil {
			return 0, e.(error)
		}
		return float64(total.Load()) / time.Since(start).Seconds(), nil
	}

	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
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

// ctxPath measures what context propagation costs on the Fig. 2
// parallel fast path (ISSUE 5). Each workload is driven through the
// duplexed front with three context flavors:
//
//	nodeadline — context.Background(); the pipeline's gate stage pays
//	             one Done-channel select and one failed value lookup.
//	             This is the path the ≤5% regression bound applies to.
//	deadline   — a virtual-clock deadline far in the future
//	             (vclock.WithTimeout); adds the deadline comparison
//	             against the injected clock on every command.
//	cancelable — context.WithCancel; adds a live Done channel to the
//	             gate's select.
//
// Overhead is reported per flavor relative to nodeadline ops/sec.
func ctxPath() error {
	const (
		window     = 300 * time.Millisecond
		goroutines = 4
	)
	clk := vclock.Real()

	type workload struct {
		name  string
		setup func() (func(ctx context.Context, g, i int) error, error)
	}
	workloads := []workload{
		{"duplexlock", func() (func(ctx context.Context, g, i int) error, error) {
			d := cf.NewDuplexed(clk, nil, cf.New("CF01", clk), cf.New("CF02", clk))
			ls, err := d.AllocateLockStructure("IRLM", 4096)
			if err != nil {
				return nil, err
			}
			if err := ls.Connect(context.Background(), "SYS1"); err != nil {
				return nil, err
			}
			return func(ctx context.Context, g, i int) error {
				e := (g*131 + i) % 4096
				if _, err := ls.Obtain(ctx, e, "SYS1", cf.Exclusive); err != nil {
					return err
				}
				return ls.Release(ctx, e, "SYS1", cf.Exclusive)
			}, nil
		}},
		{"duplexread", func() (func(ctx context.Context, g, i int) error, error) {
			d := cf.NewDuplexed(clk, nil, cf.New("CF01", clk), cf.New("CF02", clk))
			cs, err := d.AllocateCacheStructure("GBP0", 8192)
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
			return func(ctx context.Context, g, i int) error {
				_, err := cs.ReadAndRegister(ctx, "SYS1", pages[(g*97+i)%512], i%1024)
				return err
			}, nil
		}},
		{"duplexlist", func() (func(ctx context.Context, g, i int) error, error) {
			d := cf.NewDuplexed(clk, nil, cf.New("CF01", clk), cf.New("CF02", clk))
			ls, err := d.AllocateListStructure("WORKQ", 64, 0, 1<<20)
			if err != nil {
				return nil, err
			}
			if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
				return nil, err
			}
			return func(ctx context.Context, g, i int) error {
				list := g % 64
				id := fmt.Sprintf("g%d-e%d", g, i)
				if err := ls.Write(ctx, "SYS1", list, id, "", nil, cf.FIFO, cf.Cond{}); err != nil {
					return err
				}
				_, err := ls.Pop(ctx, "SYS1", list, cf.Cond{})
				return err
			}, nil
		}},
	}

	type flavor struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}
	flavors := []flavor{
		{"nodeadline", func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}},
		{"deadline", func() (context.Context, context.CancelFunc) {
			return vclock.WithTimeout(context.Background(), clk, time.Hour), func() {}
		}},
		{"cancelable", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}},
	}

	fmt.Printf("Context-pipeline overhead — Fig. 2 parallel fast path, %d goroutines, %v window (GOMAXPROCS=%d):\n",
		goroutines, window, runtime.GOMAXPROCS(0))
	fmt.Printf("%12s %12s %12s %12s %10s %10s\n",
		"WORKLOAD", "NODEADLINE", "DEADLINE", "CANCELABLE", "DL OVHD", "CXL OVHD")

	for _, w := range workloads {
		opsBy := map[string]float64{}
		for _, fl := range flavors {
			op, err := w.setup()
			if err != nil {
				return err
			}
			ctx, cancel := fl.ctx()
			var total atomic.Int64
			var stop atomic.Int64
			var opErr atomic.Value
			var wg sync.WaitGroup
			for k := 0; k < goroutines; k++ {
				k := k
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := int64(0)
					for i := 0; stop.Load() == 0; i++ {
						if err := op(ctx, k, i); err != nil {
							opErr.Store(err)
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
			cancel()
			elapsed := time.Since(start)
			if e := opErr.Load(); e != nil {
				return fmt.Errorf("ctxpath %s/%s: %v", w.name, fl.name, e)
			}
			ops := float64(total.Load()) / elapsed.Seconds()
			opsBy[fl.name] = ops
			record("ctxpath", fmt.Sprintf("%s_%s_ops_per_sec", w.name, fl.name), ops)
		}
		overhead := func(name string) float64 {
			if opsBy["nodeadline"] <= 0 {
				return 0
			}
			return (1 - opsBy[name]/opsBy["nodeadline"]) * 100
		}
		dl, cxl := overhead("deadline"), overhead("cancelable")
		record("ctxpath", w.name+"_deadline_overhead_pct", dl)
		record("ctxpath", w.name+"_cancelable_overhead_pct", cxl)
		fmt.Printf("%12s %12.0f %12.0f %12.0f %9.1f%% %9.1f%%\n",
			w.name, opsBy["nodeadline"], opsBy["deadline"], opsBy["cancelable"], dl, cxl)
	}
	record("ctxpath", "goroutines", goroutines)
	record("ctxpath", "window_ms", window.Milliseconds())
	record("ctxpath", "gomaxprocs", runtime.GOMAXPROCS(0))
	return nil
}

// transport measures what the cflink wire costs relative to an
// in-process facility (ISSUE 6). The same duplexed lock/read/list
// workloads from ctxpath run over three node constructions:
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
	clk := vclock.Real()

	// nodePair builds the two CF nodes for a mode and returns a
	// teardown that severs any servers it started.
	type mode struct {
		name  string
		nodes func() (n1, n2 cf.Node, cleanup func(), err error)
	}
	serve := func(network, addr, name string) (*cflink.Server, net.Listener, error) {
		srv := cflink.NewServer(cf.New(name, clk))
		l, err := net.Listen(network, addr)
		if err != nil {
			return nil, nil, err
		}
		go srv.Serve(l)
		return srv, l, nil
	}
	remotePair := func(network string, addrOf func(name string) string) (cf.Node, cf.Node, func(), error) {
		var cleanups []func()
		cleanup := func() {
			for i := len(cleanups) - 1; i >= 0; i-- {
				cleanups[i]()
			}
		}
		var nodes []cf.Node
		for _, name := range []string{"CF01", "CF02"} {
			srv, l, err := serve(network, addrOf(name), name)
			if err != nil {
				cleanup()
				return nil, nil, nil, err
			}
			cleanups = append(cleanups, func() { srv.Close() })
			c, err := cflink.Dial(network, l.Addr().String(), cflink.WithSystem("SYS1"))
			if err != nil {
				cleanup()
				return nil, nil, nil, err
			}
			cleanups = append(cleanups, func() { c.Close() })
			nodes = append(nodes, c)
		}
		return nodes[0], nodes[1], cleanup, nil
	}
	sockDir, err := os.MkdirTemp("", "sysplexbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	modes := []mode{
		{"inproc", func() (cf.Node, cf.Node, func(), error) {
			return cf.New("CF01", clk), cf.New("CF02", clk), func() {}, nil
		}},
		{"unix", func() (cf.Node, cf.Node, func(), error) {
			return remotePair("unix", func(name string) string {
				return filepath.Join(sockDir, name+".sock")
			})
		}},
		{"tcp", func() (cf.Node, cf.Node, func(), error) {
			return remotePair("tcp", func(string) string { return "127.0.0.1:0" })
		}},
	}

	type workload struct {
		name  string
		setup func(d *cf.Duplexed) (func(ctx context.Context, g, i int) error, error)
	}
	workloads := []workload{
		{"lock", func(d *cf.Duplexed) (func(ctx context.Context, g, i int) error, error) {
			ls, err := d.AllocateLockStructure("IRLM", 4096)
			if err != nil {
				return nil, err
			}
			if err := ls.Connect(context.Background(), "SYS1"); err != nil {
				return nil, err
			}
			return func(ctx context.Context, g, i int) error {
				e := (g*131 + i) % 4096
				if _, err := ls.Obtain(ctx, e, "SYS1", cf.Exclusive); err != nil {
					return err
				}
				return ls.Release(ctx, e, "SYS1", cf.Exclusive)
			}, nil
		}},
		{"read", func(d *cf.Duplexed) (func(ctx context.Context, g, i int) error, error) {
			cs, err := d.AllocateCacheStructure("GBP0", 8192)
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
			return func(ctx context.Context, g, i int) error {
				_, err := cs.ReadAndRegister(ctx, "SYS1", pages[(g*97+i)%512], i%1024)
				return err
			}, nil
		}},
		{"list", func(d *cf.Duplexed) (func(ctx context.Context, g, i int) error, error) {
			ls, err := d.AllocateListStructure("WORKQ", 64, 0, 1<<20)
			if err != nil {
				return nil, err
			}
			if err := ls.Connect(context.Background(), "SYS1", nil); err != nil {
				return nil, err
			}
			return func(ctx context.Context, g, i int) error {
				list := g % 64
				id := fmt.Sprintf("g%d-e%d", g, i)
				if err := ls.Write(ctx, "SYS1", list, id, "", nil, cf.FIFO, cf.Cond{}); err != nil {
					return err
				}
				_, err := ls.Pop(ctx, "SYS1", list, cf.Cond{})
				return err
			}, nil
		}},
	}

	fmt.Printf("CF link transport cost — duplexed loopback matrix, %d goroutines, %v window (GOMAXPROCS=%d):\n",
		goroutines, window, runtime.GOMAXPROCS(0))
	fmt.Printf("%8s %12s %12s %12s %10s %10s\n",
		"WORKLOAD", "INPROC", "UNIX", "TCP", "UNIX x", "TCP x")

	for _, w := range workloads {
		opsBy := map[string]float64{}
		for _, m := range modes {
			n1, n2, cleanup, err := m.nodes()
			if err != nil {
				return fmt.Errorf("transport %s/%s: %v", w.name, m.name, err)
			}
			d := cf.NewDuplexed(clk, nil, n1, n2)
			op, err := w.setup(d)
			if err != nil {
				cleanup()
				return fmt.Errorf("transport %s/%s: %v", w.name, m.name, err)
			}
			var total atomic.Int64
			var stop atomic.Int64
			var opErr atomic.Value
			var wg sync.WaitGroup
			for k := 0; k < goroutines; k++ {
				k := k
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := int64(0)
					for i := 0; stop.Load() == 0; i++ {
						if err := op(context.Background(), k, i); err != nil {
							opErr.Store(err)
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
			cleanup()
			if e := opErr.Load(); e != nil {
				return fmt.Errorf("transport %s/%s: %v", w.name, m.name, e)
			}
			ops := float64(total.Load()) / elapsed.Seconds()
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
	record("transport", "gomaxprocs", runtime.GOMAXPROCS(0))
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
//	batch32 — envelopes of 32, the commit bulk-release shape;
//	async32 — envelopes of 32 issued through the completion-vector
//	          async interface with several in flight, overlapping
//	          link round trips.
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
	clk := vclock.Real()
	ctx := context.Background()

	sockDir, err := os.MkdirTemp("", "sysplexbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	var cleanups []func()
	defer func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}()
	var nodes []cf.Node
	for _, name := range []string{"CF01", "CF02"} {
		srv := cflink.NewServer(cf.New(name, clk))
		l, err := net.Listen("unix", filepath.Join(sockDir, name+".sock"))
		if err != nil {
			return err
		}
		go srv.Serve(l)
		cleanups = append(cleanups, func() { srv.Close() })
		c, err := cflink.Dial("unix", l.Addr().String(), cflink.WithSystem("SYS1"))
		if err != nil {
			return err
		}
		cleanups = append(cleanups, func() { c.Close() })
		nodes = append(nodes, c)
	}
	d := cf.NewDuplexed(clk, nil, nodes[0], nodes[1])
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
	async := d.NewAsync("bench", 16)
	defer async.Close()

	type mode struct {
		name    string
		release func(base int) error
	}
	modes := []mode{
		{"sync", func(base int) error {
			for i := 0; i < block; i++ {
				if err := ls.Release(ctx, (base+i)%entries, "SYS1", cf.Exclusive); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch1", func(base int) error {
			for i := 0; i < block; i++ {
				if err := cf.FirstErr(ls.Batch(ctx, relCmds(base, i, 1))); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch8", func(base int) error {
			for off := 0; off < block; off += 8 {
				if err := cf.FirstErr(ls.Batch(ctx, relCmds(base, off, 8))); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch32", func(base int) error {
			for off := 0; off < block; off += 32 {
				if err := cf.FirstErr(ls.Batch(ctx, relCmds(base, off, 32))); err != nil {
					return err
				}
			}
			return nil
		}},
		{"async32", func(base int) error {
			comps := make([]*cf.Completion, 0, block/32)
			for off := 0; off < block; off += 32 {
				c, err := async.Run(ctx, "IRLM", relCmds(base, off, 32)...)
				if err != nil {
					return err
				}
				comps = append(comps, c)
			}
			for _, c := range comps {
				if err := c.Wait(); err != nil {
					return err
				}
			}
			return nil
		}},
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
	record("batch", "gomaxprocs", runtime.GOMAXPROCS(0))
	return nil
}
