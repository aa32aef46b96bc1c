package rmf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sysplex/internal/cfrm"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
	"sysplex/internal/wlm"
)

// DefaultInterval is the measurement interval when Config leaves it
// zero. Production RMF uses minutes; the reproduction's clock runs
// much hotter.
const DefaultInterval = 100 * time.Millisecond

// keep is the in-memory record ring size.
const keep = 256

// SystemSource supplies one member system's per-interval inputs. All
// fields are optional; nil funcs contribute zeros. Funcs must be safe
// to call after the system fails (they read local in-memory state).
type SystemSource struct {
	// LockStats returns the system's cumulative lock-manager counters.
	LockStats func() lockmgr.Stats
	// Util returns WLM's current utilization estimate.
	Util func() float64
	// Goals returns WLM goal attainment per service class.
	Goals func() []ClassGoal
}

// WLMGoals adapts a wlm.Manager into a SystemSource.Goals func: goal
// attainment for every class in the active policy.
func WLMGoals(m *wlm.Manager) func() []ClassGoal {
	return func() []ClassGoal {
		pol := m.Policy()
		out := make([]ClassGoal, 0, len(pol.Goals))
		for _, g := range pol.Goals {
			cp, ok := m.ClassPerformance(g.Class)
			if !ok {
				out = append(out, ClassGoal{Class: g.Class})
				continue
			}
			out = append(out, ClassGoal{
				Class:       cp.Class,
				PI:          round2(cp.PerformanceIndex),
				Completions: cp.Completions,
				MeanRespMs:  round2(float64(cp.MeanResponse) / float64(time.Millisecond)),
				Velocity:    round2(cp.Velocity),
			})
		}
		return out
	}
}

// Config assembles a Monitor.
type Config struct {
	// Farm is the sysplex name stamped on every record.
	Farm string
	// Clock drives interval timing; required.
	Clock vclock.Clock
	// Interval between samples (DefaultInterval when zero).
	Interval time.Duration
	// CFRM is the coupling-facility resource manager the CF, CFRM, and
	// partition sections are sampled from; required.
	CFRM *cfrm.Manager
	// Logger is the sysplex-wide System Logger registry (optional).
	Logger *metrics.Registry
	// DASD is the shared DASD farm's registry (optional): per-volume
	// I/O, reserve collisions, and group-commit fsync latency.
	DASD *metrics.Registry
	// Stream picks the log stream records are written to. It is called
	// once per interval so the monitor survives the writing member
	// leaving — any connected member's stream handle works, records
	// merge. Nil (or a nil return) keeps records in memory only.
	Stream func() *logr.Stream
}

// Monitor is the RMF collector: SampleOnce cuts one interval record;
// Start drives SampleOnce from a virtual-clock ticker.
type Monitor struct {
	cfg Config

	mu       sync.Mutex
	sources  map[string]SystemSource
	seq      int64
	start    time.Time // current interval start
	prevCF   metrics.RegistrySnapshot
	prevRM   metrics.RegistrySnapshot
	prevLog  metrics.RegistrySnapshot
	prevDASD metrics.RegistrySnapshot
	prevSys  map[string]lockmgr.Stats
	restart  *RestartSection // attached to the next record cut
	ring     []Record
	stop     func()
}

// New builds a Monitor. The first interval starts now.
func New(cfg Config) (*Monitor, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("rmf: Clock required")
	}
	if cfg.CFRM == nil {
		return nil, fmt.Errorf("rmf: CFRM required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	m := &Monitor{
		cfg:     cfg,
		sources: make(map[string]SystemSource),
		prevSys: make(map[string]lockmgr.Stats),
		start:   cfg.Clock.Now(),
	}
	// Baseline snapshots so the first record reports deltas from
	// monitor creation, not all-time cumulative values.
	m.prevCF = cfg.CFRM.Primary().Metrics().Snapshot()
	m.prevRM = cfg.CFRM.Metrics().Snapshot()
	if cfg.Logger != nil {
		m.prevLog = cfg.Logger.Snapshot()
	}
	if cfg.DASD != nil {
		m.prevDASD = cfg.DASD.Snapshot()
	}
	return m, nil
}

// Interval reports the configured measurement interval.
func (m *Monitor) Interval() time.Duration { return m.cfg.Interval }

// Farm reports the sysplex name.
func (m *Monitor) Farm() string { return m.cfg.Farm }

// AddSystem registers (or replaces) a member system's input source.
func (m *Monitor) AddSystem(name string, src SystemSource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sources[name] = src
	if src.LockStats != nil {
		// Baseline so the system's first interval is a delta.
		m.prevSys[name] = src.LockStats()
	}
}

// RemoveSystem drops a member from future records.
func (m *Monitor) RemoveSystem(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sources, name)
	delete(m.prevSys, name)
}

// SampleOnce closes the current interval: it samples every layer,
// appends the record to the in-memory ring, and writes it to the log
// stream when one is configured. The returned record is complete even
// when the stream write fails (the error reports the write failure).
func (m *Monitor) SampleOnce(ctx context.Context) (Record, error) {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	r := Record{
		V:     RecordVersion,
		Farm:  m.cfg.Farm,
		Seq:   m.seq,
		Start: m.start.UnixMicro(),
		End:   now.UnixMicro(),
	}
	m.seq++
	m.start = now

	// CF section: the primary facility's registry. After a failover the
	// primary (and so the registry) is a different node; CounterDelta's
	// reset rule keeps deltas non-negative across the swap.
	pri := m.cfg.CFRM.Primary()
	cfSnap := pri.Metrics().Snapshot()
	cfDelta := cfSnap.CounterDelta(m.prevCF)
	var ops int64
	for name, d := range cfDelta {
		if strings.HasPrefix(name, "cf.cmd.") {
			ops += d
		}
	}
	r.CF = CFSection{
		Facility:    pri.Name(),
		Ops:         ops,
		XI:          cfDelta["cf.cache.xi"],
		Transitions: cfDelta["cf.list.transition"],
		Hits:        cfDelta["cf.cache.hit"],
		Misses:      cfDelta["cf.cache.miss"],
		Latency:     summarize(cfSnap.Histograms["cf.cmd.latency"], m.prevCF.Histograms["cf.cmd.latency"].Count),
	}
	m.prevCF = cfSnap

	// CFRM section: fleet status plus duplexing deltas.
	st := m.cfg.CFRM.Status()
	rmSnap := m.cfg.CFRM.Metrics().Snapshot()
	rmDelta := rmSnap.CounterDelta(m.prevRM)
	r.CFRM = CFRMSection{
		State:      st.State,
		Primary:    st.Primary,
		Secondary:  st.Secondary,
		Failovers:  rmDelta["cfrm.failover.count"],
		Retried:    rmDelta["cfrm.cmd.retried"],
		Reduplexes: rmDelta["cfrm.reduplex.count"],
		Fanout:     summarize(rmSnap.Histograms["cfrm.duplex.fanout"], m.prevRM.Histograms["cfrm.duplex.fanout"].Count),
	}
	// Batched dispatch: envelope deltas and ops-per-batch occupancy
	// (see DESIGN §13).
	r.CFRM.Batches = rmDelta["cfrm.op.batch"]
	r.CFRM.BatchOps = rmDelta["cfrm.batch.ops"]
	if r.CFRM.Batches > 0 {
		r.CFRM.MeanBatch = round2(float64(r.CFRM.BatchOps) / float64(r.CFRM.Batches))
	}
	for _, b := range []string{"1", "2_7", "8_31", "32_127", "128p"} {
		if n := rmDelta["cfrm.batch.occ."+b]; n > 0 {
			if r.CFRM.BatchOcc == nil {
				r.CFRM.BatchOcc = make(map[string]int64)
			}
			r.CFRM.BatchOcc[b] = n
		}
	}
	m.prevRM = rmSnap

	// Logger section.
	if m.cfg.Logger != nil {
		lgSnap := m.cfg.Logger.Snapshot()
		lgDelta := lgSnap.CounterDelta(m.prevLog)
		r.Logger = LoggerSection{
			Writes:         lgDelta["logr.write.count"],
			Offloads:       lgDelta["logr.offload.count"],
			OffloadRecords: lgDelta["logr.offload.records"],
			OffloadBytes:   lgDelta["logr.offload.bytes"],
		}
		m.prevLog = lgSnap
	}

	// DASD section: farm-wide and per-volume I/O deltas plus the
	// group-commit fsync cost.
	if m.cfg.DASD != nil {
		dSnap := m.cfg.DASD.Snapshot()
		dDelta := dSnap.CounterDelta(m.prevDASD)
		sec := &DASDSection{
			Reads:       dDelta["dasd.read"],
			Writes:      dDelta["dasd.write"],
			ReserveBusy: dDelta["dasd.reserve.busy"],
			Fsyncs:      dDelta["dasd.fsync.count"],
			FsyncLatency: summarize(dSnap.Histograms["dasd.fsync.latency"],
				m.prevDASD.Histograms["dasd.fsync.latency"].Count),
		}
		vols := map[string]*VolumeIO{}
		for name, d := range dDelta {
			if d <= 0 || !strings.HasPrefix(name, "dasd.vol.") {
				continue
			}
			rest := name[len("dasd.vol."):]
			var volser, op string
			if strings.HasSuffix(rest, ".read") {
				volser, op = rest[:len(rest)-len(".read")], "read"
			} else if strings.HasSuffix(rest, ".write") {
				volser, op = rest[:len(rest)-len(".write")], "write"
			} else {
				continue
			}
			v := vols[volser]
			if v == nil {
				v = &VolumeIO{Volser: volser}
				vols[volser] = v
			}
			if op == "read" {
				v.Reads = d
			} else {
				v.Writes = d
			}
		}
		volNames := make([]string, 0, len(vols))
		for n := range vols {
			volNames = append(volNames, n)
		}
		sort.Strings(volNames)
		for _, n := range volNames {
			sec.Volumes = append(sec.Volumes, *vols[n])
		}
		r.DASD = sec
		m.prevDASD = dSnap
	}

	// A pending restart section rides on the next record cut.
	r.Restart = m.restart
	m.restart = nil

	// Clones: per-system lock deltas and WLM goal attainment.
	names := make([]string, 0, len(m.sources))
	for n := range m.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := m.sources[n]
		c := Clone{System: n}
		if src.LockStats != nil {
			cur := src.LockStats()
			prev := m.prevSys[n]
			c.Locks = cur.Locks - prev.Locks
			c.Contention = cur.Contentions - prev.Contentions
			c.FalseCont = cur.FalseContentions - prev.FalseContentions
			if c.Locks > 0 {
				c.FalseRate = round2(float64(c.FalseCont) / float64(c.Locks))
			}
			m.prevSys[n] = cur
		}
		// Batch traffic is attributed to the system whose connector
		// name the envelope carried (exploiters pass their system
		// name), so the per-clone counters live on the CFRM registry.
		c.Batches = rmDelta["cfrm.batch.count."+n]
		c.BatchOps = rmDelta["cfrm.batch.ops."+n]
		if src.Util != nil {
			c.Util = round2(src.Util())
		}
		if src.Goals != nil {
			c.Goals = src.Goals()
		}
		r.Clones = append(r.Clones, c)
	}

	// Partitions: every structure on the duplexing front, with
	// model-appropriate occupancy.
	front := m.cfg.CFRM.Front()
	for _, name := range front.StructureNames() {
		p := Partition{Name: name}
		if ls, err := front.ListStructure(name); err == nil {
			p.Model, p.Occupancy = "list", ls.TotalEntries()
		} else if cs, err := front.CacheStructure(name); err == nil {
			p.Model, p.Occupancy = "cache", len(cs.ChangedBlocks())
		} else if lk, err := front.LockStructure(name); err == nil {
			p.Model, p.Occupancy = "lock", lk.Entries()
		} else {
			continue // structure went away between listing and lookup
		}
		r.Partitions = append(r.Partitions, p)
	}

	m.ring = append(m.ring, r)
	if over := len(m.ring) - keep; over > 0 {
		m.ring = append(m.ring[:0], m.ring[over:]...)
	}
	stream := m.cfg.Stream
	m.mu.Unlock()

	if stream == nil {
		return r, nil
	}
	s := stream()
	if s == nil {
		return r, nil
	}
	data, err := r.Marshal(logr.MaxRecord)
	if err != nil {
		return r, err
	}
	if _, err := s.Write(ctx, data); err != nil {
		return r, fmt.Errorf("rmf: interval %d stream write: %w", r.Seq, err)
	}
	return r, nil
}

// CutRestart cuts the restart-recovery-time record: an immediate
// interval record carrying the RestartSection. The façade calls it once
// per cold boot, right after Open's recovery pass, so the restart cost
// lands on the same SMF stream as every other measurement.
func (m *Monitor) CutRestart(ctx context.Context, sec RestartSection) (Record, error) {
	m.mu.Lock()
	m.restart = &sec
	m.mu.Unlock()
	return m.SampleOnce(ctx)
}

// Start launches the interval ticker on the configured clock. Stop
// with Stop; Start after Stop begins a fresh ticker.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	tick := m.cfg.Clock.NewTicker(m.cfg.Interval)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-tick.C():
				// Interval records are cut under a background context:
				// sampling is driven by the clock, not by a caller.
				_, _ = m.SampleOnce(context.Background())
			}
		}
	}()
	var once sync.Once
	m.stop = func() {
		once.Do(func() {
			tick.Stop()
			close(done)
		})
	}
}

// Stop halts the interval ticker (records already cut are kept).
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Latest returns up to n most recent records, oldest first.
func (m *Monitor) Latest(n int) []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 || n > len(m.ring) {
		n = len(m.ring)
	}
	out := make([]Record, n)
	copy(out, m.ring[len(m.ring)-n:])
	return out
}

// Intervals reports how many interval records have been cut.
func (m *Monitor) Intervals() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}
