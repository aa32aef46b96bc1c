package sysplex

// Benchmark harness: one benchmark per paper artifact (Figures 1-4) and
// per derived experiment. Custom metrics carry the quantities the paper
// reports; the root tests assert them and examples/ prints them as
// tables (examples/scalability for Figure 3 and the §4 claims).

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/scalemodel"
	"sysplex/internal/vclock"
)

// --- FIG1: system model assembly ---

// BenchmarkFig1_SystemModel measures building a complete 4-system
// sysplex (volumes, couple data sets, CF structures, four full software
// stacks) — the Figure 1 configuration as an executable artifact.
func BenchmarkFig1_SystemModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig("PLEX1", 4)
		cfg.Background = false
		p, err := New(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		p.Stop()
	}
}

// --- FIG2: data-sharing architecture micro-operations ---

func newCFBench(b *testing.B) *cf.Facility {
	b.Helper()
	return cf.New("CF01", vclock.Real())
}

// BenchmarkFig2_LockObtainRelease measures the synchronous
// no-contention lock path (the paper: "granted cpu-synchronously...
// measured in micro-seconds").
func BenchmarkFig2_LockObtainRelease(b *testing.B) {
	fac := newCFBench(b)
	ls, _ := fac.AllocateLockStructure("IRLM", 4096)
	ls.Connect(context.Background(), "SYS1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := ls.Obtain(context.Background(), i%4096, "SYS1", cf.Exclusive); err != nil || !r.Granted {
			b.Fatal("obtain failed")
		}
		ls.Release(context.Background(), i%4096, "SYS1", cf.Exclusive)
	}
}

// BenchmarkFig2_CacheReadRegister measures directory registration +
// global-cache read.
func BenchmarkFig2_CacheReadRegister(b *testing.B) {
	fac := newCFBench(b)
	cs, _ := fac.AllocateCacheStructure("GBP0", 8192)
	vec := cf.NewBitVector(1024)
	cs.Connect(context.Background(), "SYS1", vec)
	cs.WriteAndInvalidate(context.Background(), "SYS1", "PAGE", []byte("data"), true, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.ReadAndRegister(context.Background(), "SYS1", "PAGE", i%1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_CacheWriteCrossInvalidate measures a write that must
// cross-invalidate a registered peer on every iteration.
func BenchmarkFig2_CacheWriteCrossInvalidate(b *testing.B) {
	fac := newCFBench(b)
	cs, _ := fac.AllocateCacheStructure("GBP0", 8192)
	v1, v2 := cf.NewBitVector(64), cf.NewBitVector(64)
	cs.Connect(context.Background(), "SYS1", v1)
	cs.Connect(context.Background(), "SYS2", v2)
	data := []byte("new version of the page")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.ReadAndRegister(context.Background(), "SYS2", "PAGE", 1)
		if err := cs.WriteAndInvalidate(context.Background(), "SYS1", "PAGE", data, true, true, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_VectorTest measures the local validity check (the new
// CPU instruction analog) — this is why reads avoid CF traffic.
func BenchmarkFig2_VectorTest(b *testing.B) {
	vec := cf.NewBitVector(4096)
	vec.Set(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !vec.Test(17) {
			b.Fatal("bit lost")
		}
	}
}

// BenchmarkFig2_ListQueue measures shared work-queue operations
// (write + pop) on a list structure.
func BenchmarkFig2_ListQueue(b *testing.B) {
	fac := newCFBench(b)
	ls, _ := fac.AllocateListStructure("WORKQ", 4, 0, 1<<20)
	ls.Connect(context.Background(), "SYS1", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := ls.Write(context.Background(), "SYS1", 0, id, "", nil, cf.FIFO, cf.Cond{}); err != nil {
			b.Fatal(err)
		}
		if _, err := ls.Pop(context.Background(), "SYS1", 0, cf.Cond{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- FIG2 parallel variants: the same micro-operations driven from
// many goroutines. The paper's CF completes commands for all attached
// systems concurrently; these benchmarks (run with -cpu=1,4,8) measure
// how close the emulation gets to that as cores are added. ---

// BenchmarkFig2_LockObtainReleaseParallel drives the no-contention lock
// path from parallel requesters spread across the lock table.
func BenchmarkFig2_LockObtainReleaseParallel(b *testing.B) {
	fac := newCFBench(b)
	ls, _ := fac.AllocateLockStructure("IRLM", 4096)
	ls.Connect(context.Background(), "SYS1")
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(gid.Add(1)) * 131
		i := 0
		for pb.Next() {
			i++
			e := (base + i) % 4096
			if r, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil || !r.Granted {
				b.Fatal("obtain failed")
			}
			ls.Release(context.Background(), e, "SYS1", cf.Exclusive)
		}
	})
}

// BenchmarkFig2_CacheReadRegisterParallel drives registration reads
// against a warm global cache from parallel readers over 512 blocks.
func BenchmarkFig2_CacheReadRegisterParallel(b *testing.B) {
	fac := newCFBench(b)
	cs, _ := fac.AllocateCacheStructure("GBP0", 8192)
	vec := cf.NewBitVector(1024)
	cs.Connect(context.Background(), "SYS1", vec)
	for i := 0; i < 512; i++ {
		cs.WriteAndInvalidate(context.Background(), "SYS1", fmt.Sprintf("PAGE%03d", i), []byte("data"), true, false, i)
	}
	pages := make([]string, 512)
	for i := range pages {
		pages[i] = fmt.Sprintf("PAGE%03d", i)
	}
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)) * 97
		for pb.Next() {
			i++
			if _, err := cs.ReadAndRegister(context.Background(), "SYS1", pages[i%512], i%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig2_CacheWriteCrossInvalidateParallel drives writes that
// cross-invalidate a registered peer, parallel writers on disjoint
// blocks.
func BenchmarkFig2_CacheWriteCrossInvalidateParallel(b *testing.B) {
	fac := newCFBench(b)
	cs, _ := fac.AllocateCacheStructure("GBP0", 8192)
	v1, v2 := cf.NewBitVector(1024), cf.NewBitVector(1024)
	cs.Connect(context.Background(), "SYS1", v1)
	cs.Connect(context.Background(), "SYS2", v2)
	data := []byte("new version of the page")
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1))
		page := fmt.Sprintf("PAGE%03d", g%512)
		vi := g % 1024
		for pb.Next() {
			cs.ReadAndRegister(context.Background(), "SYS2", page, vi)
			if err := cs.WriteAndInvalidate(context.Background(), "SYS1", page, data, true, true, vi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig2_ListQueueParallel drives write+pop queue cycles with
// each goroutine owning one of 64 lists (independent work queues, the
// multi-system consumption pattern of §3.3.3).
func BenchmarkFig2_ListQueueParallel(b *testing.B) {
	fac := newCFBench(b)
	ls, _ := fac.AllocateListStructure("WORKQ", 64, 0, 1<<20)
	ls.Connect(context.Background(), "SYS1", nil)
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1))
		list := g % 64
		i := 0
		for pb.Next() {
			i++
			id := fmt.Sprintf("g%d-e%d", g, i)
			if err := ls.Write(context.Background(), "SYS1", list, id, "", nil, cf.FIFO, cf.Cond{}); err != nil {
				b.Fatal(err)
			}
			if _, err := ls.Pop(context.Background(), "SYS1", list, cf.Cond{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig2_DuplexedLockObtainParallel is the lock path through a
// duplexed structure pair: mutating commands are mirrored to both
// facilities, ordered per lock-table entry.
func BenchmarkFig2_DuplexedLockObtainParallel(b *testing.B) {
	pri := cf.New("CF01", vclock.Real())
	sec := cf.New("CF02", vclock.Real())
	d := cf.NewDuplexed(vclock.Real(), nil, pri, sec)
	ls, err := d.AllocateLockStructure("IRLM", 4096)
	if err != nil {
		b.Fatal(err)
	}
	ls.Connect(context.Background(), "SYS1")
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(gid.Add(1)) * 131
		i := 0
		for pb.Next() {
			i++
			e := (base + i) % 4096
			if r, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil || !r.Granted {
				b.Fatal("obtain failed")
			}
			ls.Release(context.Background(), e, "SYS1", cf.Exclusive)
		}
	})
}

// BenchmarkFig2_DuplexedCacheReadParallel is the read path through a
// duplexed pair: primary-served reads, which duplexing should not
// serialize against each other.
func BenchmarkFig2_DuplexedCacheReadParallel(b *testing.B) {
	pri := cf.New("CF01", vclock.Real())
	sec := cf.New("CF02", vclock.Real())
	d := cf.NewDuplexed(vclock.Real(), nil, pri, sec)
	cs, err := d.AllocateCacheStructure("GBP0", 8192)
	if err != nil {
		b.Fatal(err)
	}
	vec := cf.NewBitVector(1024)
	cs.Connect(context.Background(), "SYS1", vec)
	for i := 0; i < 512; i++ {
		cs.WriteAndInvalidate(context.Background(), "SYS1", fmt.Sprintf("PAGE%03d", i), []byte("data"), true, false, i)
	}
	pages := make([]string, 512)
	for i := range pages {
		pages[i] = fmt.Sprintf("PAGE%03d", i)
	}
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(gid.Add(1)) * 97
		for pb.Next() {
			i++
			if _, err := cs.ReadAndRegister(context.Background(), "SYS1", pages[i%512], i%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- FIG3: scalability curves and §4 claims ---

// BenchmarkFig3_Scalability regenerates the Figure 3 series from the
// queueing model and reports the paper's §4 quantities as custom metrics.
func BenchmarkFig3_Scalability(b *testing.B) {
	params := scalemodel.DefaultParams()
	for i := 0; i < b.N; i++ {
		claims := scalemodel.Claims(params)
		b.ReportMetric(100*claims.DataSharingCost, "%dscost(paper<18)")
		b.ReportMetric(100*claims.MaxIncrementalCost, "%incr(paper<0.5)")
		b.ReportMetric(100*claims.Effective32, "%eff@32sys")
	}
}

// BenchmarkFig3_SysplexPoint solves one 8-system point.
func BenchmarkFig3_SysplexPoint(b *testing.B) {
	params := scalemodel.DefaultParams()
	for i := 0; i < b.N; i++ {
		r := scalemodel.Sysplex(8, params)
		b.ReportMetric(r.EffectiveCap, "effective-engines")
	}
}

// --- FIG4: the full software stack ---

// BenchmarkFig4_FullStackTx measures end-to-end transactions through
// VTAM generic logon → CICS-style region → data-sharing DB → CF.
func BenchmarkFig4_FullStackTx(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 4)
	cfg.Background = false
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	registerBankBenchPrograms(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("acct%d", i%64))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_FullStackTxParallel drives the stack from parallel
// clients, the shape of real terminal traffic.
func BenchmarkFig4_FullStackTxParallel(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 4)
	cfg.Background = false
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	registerBankBenchPrograms(p)
	// Each client starts its keys at its own offset.
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := ctr.Add(1 << 20)
		for pb.Next() {
			i++
			if _, err := p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte(fmt.Sprintf("acct%d", i%512))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXP-DS: data sharing vs data partitioning under skew ---

func BenchmarkExpDS_SkewComparison(b *testing.B) {
	params := scalemodel.DefaultParams()
	offered := 0.7 * 4 * 1000 / params.BaseServiceMS
	for i := 0; i < b.N; i++ {
		shared := scalemodel.Skew("sharing", 4, 0.6, offered, params)
		part := scalemodel.Skew("partitioned", 4, 0.6, offered, params)
		b.ReportMetric(shared.Throughput, "sharing-tps")
		b.ReportMetric(part.Throughput, "partitioned-tps")
		b.ReportMetric(shared.Throughput/part.Throughput, "sharing-advantage")
	}
}

// --- EXP-AVAIL: failover detection + recovery latency ---

func BenchmarkExpAvail_Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig("PLEX1", 3)
		p, err := New(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		registerBankBenchPrograms(p)
		p.SubmitViaLogon(context.Background(), "DEPOSIT", []byte("warm"))
		b.StartTimer()

		start := time.Now()
		p.KillSystem("SYS2")
		for !p.XCF().IsFailed("SYS2") {
			time.Sleep(time.Millisecond)
		}
		for len(p.RecoveryReports()) == 0 {
			time.Sleep(time.Millisecond)
		}
		b.ReportMetric(float64(time.Since(start).Milliseconds()), "ms-to-recovered")

		b.StopTimer()
		p.Stop()
		b.StartTimer()
	}
}

// --- EXP-GROW: non-disruptive growth ---

func BenchmarkExpGrow_AddSystem(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 2)
	cfg.Background = false
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reuse one system name: the re-added system reattaches to its
		// existing log dataset, as a re-IPLed system would, so the bench
		// does not exhaust the volume with b.N log allocations.
		if _, err := p.AddSystem(context.Background(), SystemConfig{Name: "GROWX", CPUs: 1}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		p.RemoveSystem(context.Background(), "GROWX")
		b.StartTimer()
	}
}

// --- EXP-QUERY: parallel decision support ---

func BenchmarkExpQuery_ParallelScan(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 4)
	cfg.Background = false
	cfg.Tables = []TableConfig{{Name: "ACCT", Pages: 64}}
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	registerBankBenchPrograms(p)
	for i := 0; i < 200; i++ {
		p.Submit(context.Background(), "SYS1", "DEPOSIT", []byte(fmt.Sprintf("row%04d", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.ParallelQuery(context.Background(), "ACCT", "sum", "row")
		if err != nil || res.Count != 200 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// --- EXP-FALSE: false contention vs lock table size ---

func BenchmarkExpFalse_LockTable(b *testing.B) {
	for _, entries := range []int{64, 1024, 16384} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			fac := cf.New("CF01", vclock.Real())
			ls, _ := fac.AllocateLockStructure("IRLM", entries)
			ls.Connect(context.Background(), "SYS1")
			ls.Connect(context.Background(), "SYS2")
			// SYS1 holds a spread of resources; SYS2 probes different
			// resources and hits false contention when entries collide.
			const held = 48
			for i := 0; i < held; i++ {
				ls.Obtain(context.Background(), ls.HashResource(fmt.Sprintf("HELD.%d", i)), "SYS1", cf.Exclusive)
			}
			falseHits := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ls.HashResource(fmt.Sprintf("PROBE.%d", i))
				r, err := ls.Obtain(context.Background(), e, "SYS2", cf.Exclusive)
				if err != nil {
					b.Fatal(err)
				}
				if r.Granted {
					ls.Release(context.Background(), e, "SYS2", cf.Exclusive)
				} else {
					falseHits++ // distinct resources: all contention is false
				}
			}
			b.ReportMetric(100*float64(falseHits)/float64(b.N), "%false-contention")
		})
	}
}

func registerBankBenchPrograms(p *Sysplex) {
	p.RegisterProgram("DEPOSIT", 1, func(tx *Tx, input []byte) ([]byte, error) {
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
	p.RegisterProgram("BALANCE", 1, func(tx *Tx, input []byte) ([]byte, error) {
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

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblation_LocalValidityFastPath measures a page read that is
// satisfied by the local bit-vector test (the architecture's fast
// path)...
func BenchmarkAblation_LocalValidityFastPath(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 1)
	cfg.Background = false
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	registerBankBenchPrograms(p)
	p.Submit(context.Background(), "SYS1", "DEPOSIT", []byte("hot"))
	s1, _ := p.System("SYS1")
	page := "T.ACCT.0"
	_ = page
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Submit(context.Background(), "SYS1", "BALANCE", []byte("hot")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s1.Engine().PoolStats()
	b.ReportMetric(float64(st.LocalHits)/float64(st.LocalHits+st.GlobalHits+st.DasdReads+1)*100, "%local-hits")
}

// ...while BenchmarkAblation_NoLocalCache forces every read back to the
// CF (the cost the bit vector avoids): the pool's local frame is
// invalidated between reads, so each access re-registers and refreshes
// from the global cache.
func BenchmarkAblation_NoLocalCache(b *testing.B) {
	cfg := DefaultConfig("PLEX1", 1)
	cfg.Background = false
	p, err := New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	registerBankBenchPrograms(p)
	p.Submit(context.Background(), "SYS1", "DEPOSIT", []byte("hot"))
	s1, _ := p.System("SYS1")
	// Discover which pages ACCT key "hot" lives on by probing stats.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Drop all local frames: next read must go to the CF.
		for pg := 0; pg < 64; pg++ {
			s1.Engine().InvalidateLocal(context.Background(), "ACCT", pg)
		}
		b.StartTimer()
		if _, err := p.Submit(context.Background(), "SYS1", "BALANCE", []byte("hot")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_CFLinkLatency sweeps the injected coupling-link
// latency to show how the synchronous command cost propagates into
// end-to-end transaction time (the reason the real hardware works in
// microseconds).
func BenchmarkAblation_CFLinkLatency(b *testing.B) {
	for _, lat := range []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond} {
		lat := lat
		b.Run(lat.String(), func(b *testing.B) {
			cfg := DefaultConfig("PLEX1", 2)
			cfg.Background = false
			p, err := New(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Stop()
			registerBankBenchPrograms(p)
			p.Facility().(*cf.Facility).SetSyncLatency(lat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Submit(context.Background(), "SYS1", "DEPOSIT", []byte(fmt.Sprintf("k%d", i%16))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_CFOpCost shows how the §4 data-sharing cost
// scales with the per-command CF cost in the scalability model.
func BenchmarkAblation_CFOpCost(b *testing.B) {
	for _, micros := range []float64{4, 8, 16} {
		micros := micros
		b.Run(fmt.Sprintf("%gus", micros), func(b *testing.B) {
			params := scalemodel.DefaultParams()
			params.CFOpMicros = micros
			for i := 0; i < b.N; i++ {
				r1 := scalemodel.Sysplex(1, params)
				r2 := scalemodel.Sysplex(2, params)
				b.ReportMetric(100*(1-r2.EffectiveCap/(2*r1.EffectiveCap)), "%dscost")
			}
		})
	}
}

// BenchmarkAblation_LockTableSize shows grant cost is flat in table
// size (hashing) — the design reason big tables are cheap insurance
// against false contention.
func BenchmarkAblation_LockTableSize(b *testing.B) {
	for _, entries := range []int{64, 4096, 262144} {
		entries := entries
		b.Run(fmt.Sprintf("%d", entries), func(b *testing.B) {
			fac := cf.New("CF01", vclock.Real())
			ls, _ := fac.AllocateLockStructure("L", entries)
			ls.Connect(context.Background(), "SYS1")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ls.HashResource(fmt.Sprintf("R%d", i))
				if r, err := ls.Obtain(context.Background(), e, "SYS1", cf.Exclusive); err != nil || !r.Granted {
					b.Fatal("obtain failed")
				}
				ls.Release(context.Background(), e, "SYS1", cf.Exclusive)
			}
		})
	}
}
