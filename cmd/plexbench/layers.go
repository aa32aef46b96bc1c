package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sysplex"
	"sysplex/internal/buffman"
	"sysplex/internal/cf"
	"sysplex/internal/lockmgr"
	"sysplex/internal/metrics"
	"sysplex/internal/txmgr"
)

// snapshot is every layer's public counters at one instant. Two of them
// bracket the traced window; the per-layer rates are their difference
// divided by the window's transactions.
type snapshot struct {
	region txmgr.Stats   // summed over systems
	locks  lockmgr.Stats // summed over systems
	pool   buffman.Stats // summed over systems
	lock   metrics.RegistrySnapshot
	logr   metrics.RegistrySnapshot
	cfrm   metrics.RegistrySnapshot
	cf     metrics.RegistrySnapshot // the primary facility's own registry
	link   metrics.RegistrySnapshot // both cflink clients, summed
	dasd   metrics.RegistrySnapshot
	xcf    metrics.RegistrySnapshot
	diskKB float64 // blocks allocated under DataDir
}

// sumSnapshots adds registries with the same metric names (one per
// system, or one per link).
func sumSnapshots(regs ...*metrics.Registry) metrics.RegistrySnapshot {
	sum := metrics.RegistrySnapshot{Counters: map[string]int64{}, Histograms: map[string]metrics.Snapshot{}}
	for _, r := range regs {
		s := r.Snapshot()
		for k, v := range s.Counters {
			sum.Counters[k] += v
		}
		for k, h := range s.Histograms {
			t := sum.Histograms[k]
			t.Count += h.Count
			t.Sum += h.Sum
			sum.Histograms[k] = t
		}
	}
	return sum
}

func takeSnapshot(e *env) snapshot {
	var s snapshot
	var lockRegs, linkRegs []*metrics.Registry
	for _, sys := range e.systems {
		r, l, p := sys.Region().Stats(), sys.Locks().Stats(), sys.Engine().PoolStats()
		s.region.Submitted += r.Submitted
		s.region.RoutedOut += r.RoutedOut
		s.region.Retries += r.Retries
		s.locks.Locks += l.Locks
		s.locks.Contentions += l.Contentions
		s.locks.FalseContentions += l.FalseContentions
		s.locks.Negotiations += l.Negotiations
		s.locks.Deadlocks += l.Deadlocks
		s.locks.Timeouts += l.Timeouts
		s.pool.LocalHits += p.LocalHits
		s.pool.GlobalHits += p.GlobalHits
		s.pool.DasdReads += p.DasdReads
		s.pool.Castouts += p.Castouts
		lockRegs = append(lockRegs, sys.Locks().Metrics())
	}
	for _, c := range e.links {
		linkRegs = append(linkRegs, c.Metrics())
	}
	s.lock = sumSnapshots(lockRegs...)
	s.link = sumSnapshots(linkRegs...)
	s.logr = e.plex.LoggerMetrics().Snapshot()
	s.cfrm = e.plex.CFRM().Metrics().Snapshot()
	s.cf = e.primaryFacility().Snapshot()
	s.dasd = e.plex.Farm().Metrics().Snapshot()
	s.xcf = e.plex.XCF().Metrics().Snapshot()
	if e.w.disk {
		s.diskKB = diskKB(e.cfg.DataDir)
	}
	return s
}

// primaryFacility is the registry holding the cf.* counters of the
// facility that serves reads: behind a link it is on the server side.
func (e *env) primaryFacility() *metrics.Registry {
	if e.w.link {
		return e.servers[0].Facility().Metrics()
	}
	return e.plex.CFRM().Primary().Metrics()
}

// diskKB is the space actually allocated under dir (volume files are
// sparse, so sizes would say gigabytes).
func diskKB(dir string) float64 {
	var blocks int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			if st, ok := info.Sys().(*syscall.Stat_t); ok {
				blocks += st.Blocks
			}
		}
		return nil
	})
	return float64(blocks) * 512 / 1024
}

// layerPass is the traced round's extra work: the tracer, the two
// snapshots, the direct engine pass and the probes.
type layerPass struct {
	tr           *tracer
	snap0, snap1 snapshot
	direct       map[string]float64 // db.begin_us … from the engine pass
	probes       map[string]float64
	linkP99      float64 // µs, since dial: a histogram has no delta quantile
}

func (l *layerPass) beforeWindow(e *env) { l.snap0 = takeSnapshot(e) }

// afterWindow runs once the traced window is verified: the second pass
// drives the engine directly, then the probes time single public calls.
func (l *layerPass) afterWindow(e *env, clients []*client, p roundPlan) error {
	l.snap1 = takeSnapshot(e)
	if e.w.link {
		l.linkP99 = e.links[0].Metrics().Histogram("cflink.cmd.rtt").Quantile(0.99) * 1e6
	}
	if err := l.enginePass(e, clients, p); err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	if err := e.watch(clients[:1], func(*client) error { return l.runProbes(e) }); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	return nil
}

// enginePass drives Engine().Begin/Get/Put/Commit directly with the
// workload's mix, to isolate begin and commit, which no span can bracket
// from outside txmgr. Like txmgr it retries a lock timeout, and it
// spreads transactions over the systems as logons do — or pins them as
// hot-mem does.
func (l *layerPass) enginePass(e *env, clients []*client, p roundPlan) error {
	type sums struct{ begin, commit, txs int64 }
	per := make([]sums, len(clients))
	n := min(p.count, 4000) / len(clients)
	ops := make([][]op, len(clients))
	for c := range ops {
		ops[c] = genOps(p.w, p.seed, p.round+1, c, n, e.owned[c])
	}
	once := func(c *client, program string, in []byte) ([]byte, error) {
		s := &per[c.id]
		sys := c.id
		if !e.w.hot {
			sys += int(s.txs)
		}
		t0 := time.Now()
		tx := e.systems[sys%len(e.systems)].Engine().Begin(context.Background())
		s.begin += int64(time.Since(t0))
		get := func(key string) ([]byte, bool, error) { return tx.Get(table, key) }
		put := func(key string, v []byte) error { return tx.Put(table, key, v) }
		var out []byte
		var err error
		switch program {
		case progNames[progDeposit]:
			out, err = deposit(in, get, put)
		case progNames[progBalance]:
			out, err = balance(in, get)
		default:
			out, err = setBal(in, put)
		}
		if err != nil {
			tx.Abort()
			return nil, err
		}
		t1 := time.Now()
		err = tx.Commit()
		s.commit += int64(time.Since(t1))
		s.txs++
		return out, err
	}
	_, err := e.drive(clients, ops, time.Time{}, func(c *client, program string, in []byte) ([]byte, error) {
		for attempt := 0; ; attempt++ {
			out, err := once(c, program, in)
			if err == nil || attempt == 3 || !(errors.Is(err, lockmgr.ErrTimeout) || errors.Is(err, lockmgr.ErrDeadlock)) {
				return out, err
			}
		}
	})
	if err != nil {
		return err
	}
	var t sums
	for i, s := range per {
		if clients[i].bad != "" {
			return errors.New(clients[i].bad)
		}
		t.begin, t.commit, t.txs = t.begin+s.begin, t.commit+s.commit, t.txs+s.txs
	}
	if t.txs == 0 {
		return errors.New("no transaction committed")
	}
	l.direct = map[string]float64{
		"db.begin_us":  float64(t.begin) / float64(t.txs) / 1e3,
		"db.commit_us": float64(t.commit) / float64(t.txs) / 1e3,
	}
	return e.verify(clients)
}

// probe times fn over iters calls in batches and returns the median
// batch mean in µs: single calls here are near the clock's resolution.
func probe(iters, batch int, fn func(i int) error) (float64, error) {
	var means []float64
	for i := 0; i < iters; i += batch {
		t0 := time.Now()
		for j := i; j < i+batch; j++ {
			if err := fn(j); err != nil {
				return 0, err
			}
		}
		means = append(means, float64(time.Since(t0))/float64(batch)/1e3)
	}
	_, med, _ := minMedMax(means)
	return med, nil
}

// runProbes times single calls into each layer's public functions, on
// benchmark-owned resources, from one goroutine with nothing else
// running.
func (l *layerPass) runProbes(e *env) error {
	ctx := context.Background()
	l.probes = map[string]float64{}
	iters, batch := 2000, 50
	if e.w.link || e.w.disk {
		iters, batch = 300, 10 // each call crosses a socket or waits for an fsync
	}
	timed := func(name string, fn func(i int) error) error {
		us, err := probe(iters, batch, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.probes[name] = us
		return nil
	}
	sys := e.systems[0]
	rec := []byte(strings.Repeat("x", 170)) // the size of a WAL update record
	page := make([]byte, 4096)

	// lockmgr: an uncontended exclusive lock and its release, each timed
	// on its own.
	locks := sys.Locks()
	var lockNs, unlockNs int64
	for i := 0; i < iters; i++ {
		res := []string{fmt.Sprintf("R.PLEXBENCH.%d", i%64)}
		t0 := time.Now()
		if err := locks.Lock(ctx, "PROBE", res[0], sysplex.Exclusive, time.Second); err != nil {
			return fmt.Errorf("lockmgr.lock_us: %w", err)
		}
		t1 := time.Now()
		if err := locks.UnlockAll(ctx, "PROBE", res); err != nil {
			return fmt.Errorf("lockmgr.unlockall_us: %w", err)
		}
		lockNs += int64(t1.Sub(t0))
		unlockNs += int64(time.Since(t1))
	}
	l.probes["lockmgr.lock_us"] = float64(lockNs) / float64(iters) / 1e3
	l.probes["lockmgr.unlockall_us"] = float64(unlockNs) / float64(iters) / 1e3

	// buffman: a read transaction with and without dropping the local
	// frames first; the difference is the refresh from the group buffer
	// pool. The harness does not know which page holds the key, so it
	// drops them all, and takes out what dropping 64 absent frames costs.
	eng := sys.Engine()
	dropFrames := func(int) error {
		for pg := 0; pg < tablePages; pg++ {
			eng.InvalidateLocal(ctx, table, pg)
		}
		return nil
	}
	read := func(int) error {
		tx := eng.Begin(ctx)
		if _, _, err := tx.Get(table, keyName(0)); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	if err := timed("buffman.refresh_us", func(i int) error { dropFrames(i); return read(i) }); err != nil {
		return err
	}
	if err := timed("drop", dropFrames); err != nil {
		return err
	}
	if err := timed("read", read); err != nil {
		return err
	}
	l.probes["buffman.refresh_us"] = max(l.probes["buffman.refresh_us"]-l.probes["drop"]-l.probes["read"], 0)

	// logr: one record onto the benchmark's own stream.
	stream, err := sys.LogStream(probeStream)
	if err != nil {
		return err
	}
	if err := timed("logr.write_us", func(int) error { _, err := stream.Write(ctx, rec); return err }); err != nil {
		return err
	}

	// cf: command pairs through the duplexed front on the benchmark's
	// own structures.
	front := e.plex.CFRM().Front()
	ls, err := front.AllocateLockStructure("PLEXBENCH.LOCK", 64)
	if err == nil {
		err = ls.Connect(ctx, "PROBE")
	}
	if err != nil {
		return err
	}
	err = timed("cf.lock_pair_us", func(i int) error {
		if _, err := ls.Obtain(ctx, i%64, "PROBE", cf.Exclusive); err != nil {
			return err
		}
		return ls.Release(ctx, i%64, "PROBE", cf.Exclusive)
	})
	if err != nil {
		return err
	}
	list, err := front.AllocateListStructure("PLEXBENCH.LIST", 1, 0, 256)
	if err == nil {
		err = list.Connect(ctx, "PROBE", cf.NewBitVector(1))
	}
	if err != nil {
		return err
	}
	err = timed("cf.list_pair_us", func(int) error {
		if err := list.Write(ctx, "PROBE", 0, "E", "", rec, cf.FIFO, cf.Cond{}); err != nil {
			return err
		}
		return list.Delete(ctx, "PROBE", "E", cf.Cond{})
	})
	if err != nil {
		return err
	}
	cache, err := front.AllocateCacheStructure("PLEXBENCH.CACHE", 256)
	if err == nil {
		err = cache.Connect(ctx, "PROBE", cf.NewBitVector(64))
	}
	if err != nil {
		return err
	}
	err = timed("cf.cache_pair_us", func(i int) error {
		name := fmt.Sprintf("P%d", i%64)
		if err := cache.WriteAndInvalidate(ctx, "PROBE", name, page, true, false, i%64); err != nil {
			return err
		}
		_, err := cache.ReadAndRegister(ctx, "PROBE", name, i%64)
		return err
	})
	if err != nil {
		return err
	}

	// dasd: one block written and made durable.
	ds, err := e.plex.Farm().Allocate("SYSP02", "PLEXBENCH.PROBE", 64)
	if err != nil {
		return err
	}
	return timed("dasd.write_sync_us", func(i int) error {
		if err := ds.Write(sys.Name(), i%64, page); err != nil {
			return err
		}
		return ds.Sync()
	})
}

// ledgerLine is one row of the per-layer ledger: where a traced
// transaction's time went.
type ledgerLine struct {
	layer  string
	selfUS float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histMeanUS is the mean of the observations a histogram gained
// between two snapshots.
func histMeanUS(a, b metrics.RegistrySnapshot, name string) float64 {
	return ratio(b.Histograms[name].Sum-a.Histograms[name].Sum, float64(b.Histograms[name].Count-a.Histograms[name].Count)) * 1e6
}

// prefixSum adds the counter deltas whose name starts with prefix.
func prefixSum(delta map[string]int64, prefix string) float64 {
	var n int64
	for k, v := range delta {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return float64(n)
}

// metrics assembles the per-layer metrics and the ledger. base is the
// untraced round and baseLat its sorted latencies; traced is the traced
// round.
func (l *layerPass) metrics(base roundResult, baseLat []int64, traced roundResult) (map[string]float64, []ledgerLine) {
	st := l.tr.stats()
	a, b := l.snap0, l.snap1
	tx := float64(traced.ok())
	ktx := tx / 1000
	m := map[string]float64{}

	m["vtam.logon_us"] = st.meanUS("vtam.logon")
	m["vtam.logoff_us"] = st.meanUS("vtam.logoff")

	m["txmgr.submit_us"] = st.meanUS("txmgr.submit")
	m["db.begin_us"] = l.direct["db.begin_us"]
	m["db.commit_us"] = l.direct["db.commit_us"]
	m["txmgr.self_us"] = st.selfPerTxUS("txmgr.submit") - m["db.begin_us"] - m["db.commit_us"]
	m["txmgr.retries_per_ktx"] = float64(b.region.Retries-a.region.Retries) / ktx
	m["txmgr.routed_share"] = 100 * ratio(float64(b.region.RoutedOut-a.region.RoutedOut), float64(b.region.Submitted-a.region.Submitted))
	m["db.get_us"] = st.meanUS("db.get")
	m["db.put_us"] = st.meanUS("db.put")

	locks := float64(b.locks.Locks - a.locks.Locks)
	m["lockmgr.lock_us"] = l.probes["lockmgr.lock_us"]
	m["lockmgr.unlockall_us"] = l.probes["lockmgr.unlockall_us"]
	m["lockmgr.locks_per_tx"] = locks / tx
	m["lockmgr.contention_share"] = 100 * ratio(float64(b.locks.Contentions-a.locks.Contentions), locks)
	m["lockmgr.false_contention_share"] = 100 * ratio(float64(b.locks.FalseContentions-a.locks.FalseContentions), locks)
	m["lockmgr.negotiations_per_ktx"] = float64(b.locks.Negotiations-a.locks.Negotiations) / ktx
	m["lockmgr.latency_mean_us"] = histMeanUS(a.lock, b.lock, "lock.latency")
	m["lockmgr.timeouts"] = float64(b.locks.Timeouts - a.locks.Timeouts)
	m["lockmgr.deadlocks"] = float64(b.locks.Deadlocks - a.locks.Deadlocks)

	local, global, dasdReads := float64(b.pool.LocalHits-a.pool.LocalHits), float64(b.pool.GlobalHits-a.pool.GlobalHits), float64(b.pool.DasdReads-a.pool.DasdReads)
	m["buffman.local_hit_share"] = 100 * ratio(local, local+global+dasdReads)
	m["buffman.global_hits_per_ktx"] = global / ktx
	m["buffman.dasd_reads_per_ktx"] = dasdReads / ktx
	m["buffman.refresh_us"] = l.probes["buffman.refresh_us"]
	m["buffman.castout_ms"] = ratio(float64(traced.castoutNs)/1e6, float64(traced.castouts))
	m["buffman.castouts_per_ktx"] = float64(b.pool.Castouts-a.pool.Castouts) / ktx

	lg := b.logr.CounterDelta(a.logr)
	m["logr.write_us"] = l.probes["logr.write_us"]
	m["logr.writes_per_tx"] = float64(lg["logr.write.count"]) / tx
	m["logr.write_latency_mean_us"] = histMeanUS(a.logr, b.logr, "logr.write.latency")
	m["logr.offloads_per_ktx"] = float64(lg["logr.offload.count"]) / ktx
	m["logr.offload_ms_mean"] = histMeanUS(a.logr, b.logr, "logr.offload.duration") / 1e3
	m["logr.offload_bytes_per_tx"] = float64(lg["logr.offload.bytes"]) / tx

	// Every command through the duplexed front counts once under
	// cfrm.op.<kind>; a batch counts its subcommands and, under
	// cfrm.op.batch, the envelope.
	rm := b.cfrm.CounterDelta(a.cfrm)
	fac := b.cf.CounterDelta(a.cf)
	cmds := prefixSum(rm, "cfrm.op.") - float64(rm["cfrm.op.batch"])
	m["cf.cmds_per_tx"] = cmds / tx
	m["cf.lock_cmds_per_tx"] = prefixSum(rm, "cfrm.op.lock.") / tx
	m["cf.cache_cmds_per_tx"] = prefixSum(rm, "cfrm.op.cache.") / tx
	m["cf.list_cmds_per_tx"] = prefixSum(rm, "cfrm.op.list.") / tx
	m["cf.batch_ops_share"] = 100 * ratio(float64(rm["cfrm.batch.ops"]), cmds)
	m["cf.cmd_latency_mean_us"] = histMeanUS(a.cf, b.cf, "cf.cmd.latency")
	m["cf.xi_per_ktx"] = float64(fac["cf.cache.xi"]) / ktx
	m["cf.lock_pair_us"] = l.probes["cf.lock_pair_us"]
	m["cf.list_pair_us"] = l.probes["cf.list_pair_us"]
	m["cf.cache_pair_us"] = l.probes["cf.cache_pair_us"]

	m["cfrm.duplex_fanout_mean_us"] = histMeanUS(a.cfrm, b.cfrm, "cfrm.duplex.fanout")
	m["cfrm.cmd_retried"] = float64(rm["cfrm.cmd.retried"])
	m["cfrm.failovers"] = float64(rm["cfrm.failover.count"])

	// cflink rows read 0 on the workloads with no link.
	lk := b.link.CounterDelta(a.link)
	m["cflink.cmds_per_tx"] = float64(lk["cflink.cmd.count"]) / tx
	m["cflink.rtt_mean_us"] = histMeanUS(a.link, b.link, "cflink.cmd.rtt")
	m["cflink.rtt_p99_us"] = l.linkP99
	m["cflink.notifies_per_ktx"] = float64(lk["cflink.notify.count"]) / ktx

	dd := b.dasd.CounterDelta(a.dasd)
	// Logged user bytes: log writes times the mean record the logger
	// offloaded (the only size it publishes).
	logged := float64(lg["logr.write.count"]) * ratio(float64(lg["logr.offload.bytes"]), float64(lg["logr.offload.records"]))
	m["dasd.writes_per_tx"] = float64(dd["dasd.write"]) / tx
	m["dasd.reads_per_tx"] = float64(dd["dasd.read"]) / tx
	m["dasd.bytes_per_user_byte"] = ratio(float64(dd["dasd.write"])*4096, logged)
	m["dasd.fsyncs_per_tx"] = float64(dd["dasd.fsync.count"]) / tx
	m["dasd.fsync_mean_us"] = histMeanUS(a.dasd, b.dasd, "dasd.fsync.latency")
	m["dasd.write_sync_us"] = l.probes["dasd.write_sync_us"]
	m["dasd.disk_kb_per_tx"] = (b.diskKB - a.diskKB) / tx
	m["dasd.reopen_ms"] = float64(traced.reopen) / 1e6

	m["xcf.msgs_per_ktx"] = float64(b.xcf.CounterDelta(a.xcf)["xcf.msg"]) / ktx

	m["client.p99_us"] = quantile(baseLat, 0.99) / 1e3
	m["client.max_ms"] = quantile(baseLat, 1) / 1e6
	m["client.mallocs_per_tx"] = float64(base.mallocs) / float64(base.ok())
	m["client.gc_pause_ms"] = float64(base.gcPauseNs) / 1e6
	m["client.live_heap_mb"] = float64(base.liveHeap) / (1 << 20)
	m["client.trace_overhead_pct"] = 100 * (quantile(sortedCopy(traced.lat), 0.5)/quantile(baseLat, 0.5) - 1)

	// The ledger: self time is a span minus its children. begin and
	// commit sit inside txmgr.submit's self time and are taken out of it
	// with the engine pass's figures.
	ledger := []ledgerLine{
		{"client (harness, reply check)", st.selfPerTxUS("client.tx")},
		{"vtam.logon", st.selfPerTxUS("vtam.logon")},
		{"txmgr (submit self)", m["txmgr.self_us"]},
		{"db.begin", m["db.begin_us"]},
		{"program (self)", st.selfPerTxUS("program")},
		{"db.get", st.selfPerTxUS("db.get")},
		{"db.put", st.selfPerTxUS("db.put")},
		{"db.commit", m["db.commit_us"]},
		{"vtam.logoff", st.selfPerTxUS("vtam.logoff")},
		{"client.tx (traced mean)", st.perTxUS("client.tx")},
	}
	return m, ledger
}

func printLedger(w io.Writer, ledger []ledgerLine) {
	if len(ledger) == 0 {
		return
	}
	total := ledger[len(ledger)-1].selfUS
	fmt.Fprintf(w, "  ledger: self time per traced transaction\n")
	var sum float64
	for _, ln := range ledger[:len(ledger)-1] {
		sum += ln.selfUS
		fmt.Fprintf(w, "    %-32s %10.2f us %6.1f%%\n", ln.layer, ln.selfUS, 100*ratio(ln.selfUS, total))
	}
	fmt.Fprintf(w, "    %-32s %10.2f us, self times sum to %.1f%% of it\n", ledger[len(ledger)-1].layer, total, 100*ratio(sum, total))
}
