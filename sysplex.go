// Package sysplex is a from-scratch Go reproduction of the IBM S/390
// Parallel Sysplex architecture described in Nick, Chung & Bowen,
// "Overview of IBM System/390 Parallel Sysplex — A Commercial Parallel
// Processing System" (IPPS 1996).
//
// A Sysplex assembles every subsystem the paper describes: shared DASD
// with multi-path I/O and fencing, duplexed couple data sets, the
// sysplex timer, a Coupling Facility with lock/cache/list structures,
// XCF group and signalling services with heartbeat-driven fail-stop,
// WLM goal-driven workload management, ARM cross-system restart, an
// IRLM-style global lock manager, a data-sharing database manager with
// group buffer pools and peer recovery, a CICS-style transaction
// manager with dynamic routing, and VTAM generic resources for a
// single network image.
//
//	cfg := sysplex.DefaultConfig("PLEX1", 4)
//	plex, _ := sysplex.New(context.Background(), cfg)
//	defer plex.Stop()
//	plex.RegisterProgram("HELLO", 1, func(tx *db.Tx, in []byte) ([]byte, error) {
//	    return []byte("world"), nil
//	})
//	out, _ := plex.SubmitViaLogon(context.Background(), "HELLO", nil)
package sysplex

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sysplex/internal/arm"
	"sysplex/internal/cds"
	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/dasd"
	"sysplex/internal/db"
	"sysplex/internal/jes"
	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
	"sysplex/internal/metrics"
	"sysplex/internal/racf"
	"sysplex/internal/rmf"
	"sysplex/internal/timer"
	"sysplex/internal/txmgr"
	"sysplex/internal/vclock"
	"sysplex/internal/vtam"
	"sysplex/internal/wlm"
	"sysplex/internal/xcf"
)

// Program is application logic run under a database transaction; it is
// registered identically on every system ("applications unchanged").
type Program = txmgr.Program

// Tx re-exports the database transaction handle used by programs.
type Tx = db.Tx

// Lock modes, re-exported for direct lock-manager use.
const (
	Share     = lockmgr.Share
	Exclusive = lockmgr.Exclusive
)

// Errors returned by the façade.
var (
	ErrNoSystem = errors.New("sysplex: no such system")
	ErrStopped  = errors.New("sysplex: sysplex stopped")
)

// GenericCICS is the generic resource name user logons resolve.
const GenericCICS = "CICS"

// databaseName scopes the database's structures and datasets.
const databaseName = "DBP1"

// XCF status monitoring, which the CF probe also follows: fast
// detection for experiments while tolerating couple-data-set
// serialization bursts (production z/OS intervals are seconds).
const (
	heartbeatInterval        = 10 * time.Millisecond
	failureDetectionInterval = 15 * heartbeatInterval
)

// TableConfig describes one shared table.
type TableConfig struct {
	Name  string
	Pages int
}

// SystemConfig describes one member system.
type SystemConfig struct {
	Name string
	// CPUs is the TCMP width (1..10).
	CPUs int
	// MIPSPerCPU scales WLM capacity (default 60, a mid-90s CMOS
	// engine).
	MIPSPerCPU float64
}

// Config describes a whole sysplex.
type Config struct {
	Name    string
	Systems []SystemConfig
	// DataDir, when set, backs the shared DASD farm with files under
	// this directory: volumes persist across process restarts, every
	// acknowledged log write and couple-data-set update is fsynced
	// (group commit), and sysplex.Open can cold-boot the sysplex from
	// whatever the previous incarnation left behind. Empty keeps the
	// farm in memory (the default, and the fast path).
	DataDir string
	// Tables are opened on every system.
	Tables []TableConfig
	// LogStreams are additional System Logger streams connected on
	// every member system (the database's WAL streams are always
	// created). Reach them via System.LogStream(name).
	LogStreams []logr.StreamSpec
	// VolumeBlocks sizes the shared volume (default 131072; log-stream
	// offload datasets chain indefinitely, so the volume is generous).
	VolumeBlocks int
	// LockTimeout for database locks (db's default 5s when zero).
	LockTimeout time.Duration
	// Background starts heartbeat/monitor/WLM-exchange/castout loops
	// for each system (default true via DefaultConfig), and with them
	// the RMF measurement subsystem: an interval monitor that samples
	// every layer and writes SMF-style records to the SYSPLEX.RMF.DATA
	// log stream; reach it via RMF().
	Background bool
	// RMFInterval is the measurement interval (default
	// rmf.DefaultInterval).
	RMFInterval time.Duration
	// CF is the CFRM policy governing the coupling-facility fleet:
	// candidate preference list, structure duplexing mode, storage
	// bound. The zero value runs structures duplexed across
	// CF01/CF02 with CF03 as the re-duplex candidate.
	CF cfrm.Policy
	// Policy is the WLM service definition.
	Policy wlm.Policy
}

// DefaultConfig returns a ready-to-run configuration with n systems
// (SYS1..SYSn), one table, and background services enabled.
func DefaultConfig(name string, n int) Config {
	cfg := Config{
		Name:       name,
		Background: true,
		Tables:     []TableConfig{{Name: "ACCT", Pages: 64}},
		Policy: wlm.Policy{Name: "STANDARD", Goals: []wlm.Goal{
			{Class: txmgr.ServiceClass, Importance: 1, AvgResponse: 100 * time.Millisecond},
		}},
	}
	for i := 1; i <= n; i++ {
		cfg.Systems = append(cfg.Systems, SystemConfig{Name: fmt.Sprintf("SYS%d", i), CPUs: 1})
	}
	return cfg
}

// System bundles one member's subsystem instances.
type System struct {
	name    string
	xsys    *xcf.System
	tod     *timer.LocalTOD
	locks   *lockmgr.Manager
	engine  *db.Engine
	wlm     *wlm.Manager
	region  *txmgr.Region
	jesExec *jes.Executor
	sec     *racf.Manager
	logger  *logr.Manager

	stopBg []func()
}

// Security exposes the RACF-style security manager.
func (s *System) Security() *racf.Manager { return s.sec }

// Logger exposes the System Logger instance.
func (s *System) Logger() *logr.Manager { return s.logger }

// LogStream returns a connected log stream by name (the database WAL
// streams plus any Config.LogStreams).
func (s *System) LogStream(name string) (*logr.Stream, error) {
	return s.logger.Stream(name)
}

// Name returns the system name.
func (s *System) Name() string { return s.name }

// Region exposes the CICS-style transaction manager.
func (s *System) Region() *txmgr.Region { return s.region }

// Engine exposes the database manager instance.
func (s *System) Engine() *db.Engine { return s.engine }

// Locks exposes the lock manager.
func (s *System) Locks() *lockmgr.Manager { return s.locks }

// TOD exposes the system's sysplex-steered clock.
func (s *System) TOD() *timer.LocalTOD { return s.tod }

// Sysplex is a running parallel sysplex.
type Sysplex struct {
	cfg    Config
	clock  vclock.Clock
	farm   *dasd.Farm
	timer  *timer.Timer
	plex   *xcf.Sysplex
	cfres  *cfrm.Manager
	front  cf.Front
	lockS  cf.Lock
	net    *vtam.Network
	arm    *arm.Manager
	det    *lockmgr.Detector
	jesQ   *jes.Queue
	racfDB *cds.Store
	armCDS *cds.Store
	logReg *metrics.Registry // shared by every member's logr.Manager
	rmfMon *rmf.Monitor      // nil when RMF is disabled

	mu       sync.Mutex
	systems  map[string]*System
	programs map[string]programSpec
	jobs     map[string]jes.Handler
	stopped  bool
	recovery []db.RecoveryReport
	restart  *RestartReport
	stopCF   func()
}

// RestartReport summarizes the recovery pass of one sysplex.Open cold
// boot: what each layer rebuilt from DASD and how long the whole pass
// took.
type RestartReport struct {
	// Duration is wall time from the first volume reattach to the end
	// of the recovery pass.
	Duration time.Duration
	// LogStreams/LogRecords count System Logger streams that needed
	// cold recovery and staged records re-inserted into interim
	// storage.
	LogStreams int64
	LogRecords int64
	// DB is the database redo pass over the merged WAL streams.
	DB db.ColdReport
	// Restarts are the ARM elements re-driven because their recorded
	// system did not return.
	Restarts []arm.RestartEvent
}

type programSpec struct {
	service float64
	fn      Program
}

// New builds and starts a sysplex. The context governs the CF commands
// issued while building the initial member set; it is not retained.
// With Config.DataDir set the DASD farm is file-backed from the start,
// so a later sysplex.Open over the same directory can cold-boot from
// whatever this incarnation leaves behind.
func New(ctx context.Context, cfg Config) (*Sysplex, error) {
	return build(ctx, cfg, false)
}

// Open cold-boots a sysplex from the durable state under
// Config.DataDir: volumes reattach, couple data sets and the catalog
// reload from their checksummed on-disk images, System Logger streams
// rebuild their interim storage from the staging datasets, the
// database redoes committed transactions from the merged WAL streams,
// and ARM re-drives elements whose recorded system did not return. A
// restart-recovery-time record is cut onto the RMF stream, and the
// pass is summarized by RestartReport. On a directory with no prior
// state Open is equivalent to New.
func Open(ctx context.Context, cfg Config) (*Sysplex, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("sysplex: Open requires Config.DataDir")
	}
	return build(ctx, cfg, true)
}

func build(ctx context.Context, cfg Config, reopen bool) (*Sysplex, error) {
	if cfg.Name == "" {
		return nil, errors.New("sysplex: name required")
	}
	if cfg.VolumeBlocks == 0 {
		// Room for table spaces, couple data sets, and log-stream
		// offload dataset chains (blocks are lazily materialized, so
		// this is cheap).
		cfg.VolumeBlocks = 131072
	}
	if cfg.Background {
		// Every member connects to the RMF stream so the monitor can
		// write through any surviving system.
		have := false
		for _, spec := range cfg.LogStreams {
			if spec.Name == rmf.StreamName {
				have = true
			}
		}
		if !have {
			cfg.LogStreams = append(cfg.LogStreams, logr.StreamSpec{Name: rmf.StreamName})
		}
	}
	clock := vclock.Real()
	bootStart := clock.Now()
	var farm *dasd.Farm
	if cfg.DataDir != "" {
		var err error
		if farm, err = dasd.OpenFarm(clock, cfg.DataDir); err != nil {
			return nil, err
		}
	} else {
		farm = dasd.NewFarm(clock)
	}
	p := &Sysplex{
		cfg:      cfg,
		clock:    clock,
		farm:     farm,
		timer:    timer.New(clock),
		systems:  make(map[string]*System),
		programs: make(map[string]programSpec),
		jobs:     make(map[string]jes.Handler),
		logReg:   metrics.NewRegistry(),
	}

	// Shared DASD (Figure 1: disks fully connected to all processors).
	// Couple data sets live on dedicated volumes — standard practice,
	// because CDS serialization uses hardware reserves that block other
	// systems' I/O to the whole device.
	if _, err := p.farm.AddVolume("SYSP01", cfg.VolumeBlocks, 4); err != nil {
		return nil, err
	}
	if _, err := p.farm.AddVolume("SYSP02", cfg.VolumeBlocks, 4); err != nil {
		return nil, err
	}
	if _, err := p.farm.AddVolume("CPLEX1", 512, 4); err != nil {
		return nil, err
	}
	if _, err := p.farm.AddVolume("CPLEX2", 512, 4); err != nil {
		return nil, err
	}
	// Duplexed sysplex couple data set across the dedicated volumes.
	// allocOrAttach finds the persisted datasets on a reopened farm.
	pri, err := p.allocOrAttach("CPLEX1", "SYS1.XCF.CDS01", 256)
	if err != nil {
		return nil, err
	}
	alt, err := p.allocOrAttach("CPLEX2", "SYS1.XCF.CDS02", 256)
	if err != nil {
		return nil, err
	}
	// XCF context first, so the CDS can break reserves of failed systems.
	store, err := cds.New(cfg.Name+".CDS", clock, pri, alt, cds.Options{
		StaleHolder: func(sys string) bool { return p.plex != nil && p.plex.IsFailed(sys) },
	})
	if err != nil {
		return nil, err
	}
	p.plex = xcf.NewSysplex(cfg.Name, clock, store, p.farm, xcf.Options{
		HeartbeatInterval:        heartbeatInterval,
		FailureDetectionInterval: failureDetectionInterval,
	})

	// Coupling facility fleet under CFRM policy (Figure 2): structures
	// are allocated through the duplexing front, not a raw facility.
	p.cfres, err = cfrm.New(cfg.CF, clock)
	if err != nil {
		return nil, err
	}
	p.front = p.cfres.Front()
	p.lockS, err = p.front.AllocateLockStructure("IRLM."+databaseName, 4096)
	if err != nil {
		return nil, err
	}
	grList, err := p.front.AllocateListStructure("ISTGENERIC", 16, 1, 4096)
	if err != nil {
		return nil, err
	}
	p.net, err = vtam.New(ctx, grList, p.routeWeights)
	if err != nil {
		return nil, err
	}
	// JES2-style shared job queue checkpoint (§5.1 base exploiter).
	jesList, err := p.front.AllocateListStructure("JES2CKPT", 3, 1, 8192)
	if err != nil {
		return nil, err
	}
	p.jesQ, err = jes.NewQueue(ctx, jesList, "JES")
	if err != nil {
		return nil, err
	}
	// RACF-style shared security: database on a dedicated volume (its
	// serialization must not contend with the XCF couple data set) and
	// a CF cache structure for sysplex-wide profile coherency.
	if _, err := p.farm.AddVolume("RACF01", 512, 4); err != nil {
		return nil, err
	}
	racfDS, err := p.allocOrAttach("RACF01", "SYS1.RACF.DB", 256)
	if err != nil {
		return nil, err
	}
	p.racfDB, err = cds.New("RACFDB", clock, racfDS, nil, cds.Options{
		StaleHolder: func(sys string) bool { return p.plex != nil && p.plex.IsFailed(sys) },
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.front.AllocateCacheStructure("IRRXCF00", 1024); err != nil {
		return nil, err
	}

	// Failure wiring, ordered: (1) CF connector cleanup + network
	// cleanup, then (2) ARM-driven cross-system restart & DB recovery.
	p.plex.OnSystemFailed(func(sys string) {
		// Failure recovery runs under a background context: it is driven
		// by XCF monitoring, not by any cancellable caller.
		bg := context.Background()
		p.front.FailConnector(sys)
		p.net.CleanupSystem(bg, sys)
		p.jesQ.RequeueOrphans(bg, sys)
		// LOGR peer takeover: FailConnector just cleared the dead
		// system's offload locks, so any survivor can finish offloads
		// it left mid-flight.
		p.mu.Lock()
		var survivor *System
		for _, s := range p.systems {
			if s.name != sys && p.plex.State(s.name) == xcf.StateActive {
				survivor = s
				break
			}
		}
		p.mu.Unlock()
		if survivor != nil {
			survivor.logger.TakeoverFailed(context.Background(), sys)
		}
		// A failed system stops contributing clone sections (RMF would
		// stop receiving its SMF data).
		p.mu.Lock()
		mon := p.rmfMon
		p.mu.Unlock()
		if mon != nil {
			mon.RemoveSystem(sys)
		}
	})
	// ARM couple data set, duplexed like the sysplex CDS: element state
	// survives a whole-sysplex outage so Open can re-drive restarts for
	// work that was running on systems that never came back. It gets
	// its own volume pair — the XCF couple data set's heartbeat traffic
	// holds hardware reserves on CPLEX1/CPLEX2, and ARM updates must
	// not collide with them.
	if _, err := p.farm.AddVolume("ARMCD1", 512, 4); err != nil {
		return nil, err
	}
	if _, err := p.farm.AddVolume("ARMCD2", 512, 4); err != nil {
		return nil, err
	}
	armPri, err := p.allocOrAttach("ARMCD1", "SYS1.ARM.CDS01", 128)
	if err != nil {
		return nil, err
	}
	armAlt, err := p.allocOrAttach("ARMCD2", "SYS1.ARM.CDS02", 128)
	if err != nil {
		return nil, err
	}
	p.armCDS, err = cds.New("ARMCDS", clock, armPri, armAlt, cds.Options{
		StaleHolder: func(sys string) bool { return p.plex != nil && p.plex.IsFailed(sys) },
	})
	if err != nil {
		return nil, err
	}
	p.arm = arm.New(p.plex, p.armCDS, p.pickRestartTarget)
	p.det = lockmgr.NewDetector(p.lockManagers)

	for _, sc := range cfg.Systems {
		if _, err := p.AddSystem(ctx, sc); err != nil {
			return nil, err
		}
	}

	// CF health monitoring: the same status-monitoring cadence XCF uses
	// for member systems also watches the CF fleet, routing failures
	// into CFRM so failover does not wait for a command to trip over
	// the dead facility.
	if cfg.Background {
		probe := clock.NewTicker(failureDetectionInterval)
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-done:
					return
				case <-probe.C():
					p.cfres.ProbeOnce()
				}
			}
		}()
		var once sync.Once
		p.stopCF = func() {
			once.Do(func() {
				probe.Stop()
				close(done)
			})
		}
	}

	// RMF measurement subsystem: interval records onto SYSPLEX.RMF.DATA.
	if cfg.Background {
		mon, err := rmf.New(rmf.Config{
			Farm: cfg.Name, Clock: clock, Interval: cfg.RMFInterval,
			CFRM: p.cfres, Logger: p.logReg, DASD: p.farm.Metrics(),
			Stream: p.rmfStream,
		})
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.rmfMon = mon
		systems := make([]*System, 0, len(p.systems))
		for _, s := range p.systems {
			systems = append(systems, s)
		}
		p.mu.Unlock()
		for _, s := range systems {
			mon.AddSystem(s.name, systemSource(s))
		}
		mon.Start()
	}

	// Cold-boot recovery pass. Stream-level recovery already ran inside
	// each member's logr.Connect; what is left is the database redo over
	// the recovered streams and ARM re-drive for systems that did not
	// return, then the restart-recovery-time RMF record.
	if reopen {
		if err := p.recoverCold(ctx, bootStart); err != nil {
			p.Stop()
			return nil, err
		}
	}
	return p, nil
}

// recoverCold runs Open's recovery pass (see Open). bootStart is when
// the farm reattached, so the report covers the whole boot.
func (p *Sysplex) recoverCold(ctx context.Context, bootStart time.Time) error {
	rep := &RestartReport{
		LogStreams: p.logReg.Counter("logr.recover.streams").Value(),
		LogRecords: p.logReg.Counter("logr.recover.records").Value(),
	}
	// Database redo runs through one engine: pages externalize in the
	// shared group buffer pool, so every member sees the result.
	names := make([]string, 0, len(p.systems))
	p.mu.Lock()
	for n := range p.systems {
		names = append(names, n)
	}
	p.mu.Unlock()
	sort.Strings(names)
	if len(names) > 0 {
		s, err := p.System(names[0])
		if err != nil {
			return err
		}
		if rep.DB, err = s.engine.RecoverCold(ctx); err != nil {
			return fmt.Errorf("sysplex: cold recovery: %w", err)
		}
	}
	// ARM: merge persisted element state (elements re-registered by
	// AddSystem keep their fresh records; only elements of absent
	// systems load from the CDS) and re-drive the stale ones.
	if err := p.arm.LoadState(); err != nil {
		return fmt.Errorf("sysplex: cold recovery: ARM state: %w", err)
	}
	rep.Restarts = p.arm.RecoverPending()
	rep.Duration = p.clock.Now().Sub(bootStart)
	p.mu.Lock()
	p.restart = rep
	mon := p.rmfMon
	p.mu.Unlock()
	if mon != nil {
		if _, err := mon.CutRestart(ctx, rmf.RestartSection{
			RecoveryUS:   rep.Duration.Microseconds(),
			LogStreams:   rep.LogStreams,
			LogRecords:   rep.LogRecords,
			Transactions: rep.DB.Transactions,
			RedoApplied:  rep.DB.RedoApplied,
			Restarts:     len(rep.Restarts),
		}); err != nil {
			return err
		}
	}
	return nil
}

// RestartReport returns the summary of Open's recovery pass (nil when
// the sysplex was built by New).
func (p *Sysplex) RestartReport() *RestartReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restart
}

// allocOrAttach finds a cataloged dataset on a reopened durable farm,
// allocating it on first boot (or on an in-memory farm).
func (p *Sysplex) allocOrAttach(volser, name string, nblocks int) (*dasd.Dataset, error) {
	if ds, err := p.farm.Dataset(name); err == nil {
		return ds, nil
	}
	return p.farm.Allocate(volser, name, nblocks)
}

// systemSource adapts a member system into the RMF monitor's inputs.
func systemSource(s *System) rmf.SystemSource {
	return rmf.SystemSource{
		LockStats: s.locks.Stats,
		Util:      s.wlm.Utilization,
		Goals:     rmf.WLMGoals(s.wlm),
	}
}

// rmfStream picks a connected RMF stream handle from an active member
// (any member's handle works: the stream is sysplex-merged). Called by
// the monitor once per interval, so it follows failures and removals.
func (p *Sysplex) rmfStream() *logr.Stream {
	p.mu.Lock()
	systems := make([]*System, 0, len(p.systems))
	for _, s := range p.systems {
		systems = append(systems, s)
	}
	p.mu.Unlock()
	sort.Slice(systems, func(i, j int) bool { return systems[i].name < systems[j].name })
	for _, s := range systems {
		if p.plex.State(s.name) != xcf.StateActive {
			continue
		}
		if st, err := s.logger.Stream(rmf.StreamName); err == nil {
			return st
		}
	}
	return nil
}

// routeWeights supplies WLM weights to VTAM generic resources.
func (p *Sysplex) routeWeights() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.systems {
		if p.plex.State(s.name) == xcf.StateActive {
			return s.wlm.RouteWeights()
		}
	}
	return nil
}

// pickRestartTarget asks WLM for the best restart system.
func (p *Sysplex) pickRestartTarget(exclude map[string]bool) (string, error) {
	p.mu.Lock()
	var mgr *wlm.Manager
	for _, s := range p.systems {
		if !exclude[s.name] && p.plex.State(s.name) == xcf.StateActive {
			mgr = s.wlm
			break
		}
	}
	p.mu.Unlock()
	if mgr == nil {
		return "", arm.ErrNoTarget
	}
	avail := mgr.AvailableCapacity()
	best, bestAvail := "", -1.0
	names := make([]string, 0, len(avail))
	for n := range avail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if exclude[n] || p.plex.State(n) != xcf.StateActive {
			continue
		}
		if avail[n] > bestAvail {
			best, bestAvail = n, avail[n]
		}
	}
	if best == "" {
		return "", arm.ErrNoTarget
	}
	return best, nil
}

func (p *Sysplex) lockManagers() []*lockmgr.Manager {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*lockmgr.Manager, 0, len(p.systems))
	for _, s := range p.systems {
		if p.plex.State(s.name) == xcf.StateActive {
			out = append(out, s.locks)
		}
	}
	return out
}

// AddSystem introduces a new system into the running sysplex —
// non-disruptively, per §2.4: existing systems keep executing and the
// newcomer becomes a full participant in workload balancing.
func (p *Sysplex) AddSystem(ctx context.Context, sc SystemConfig) (*System, error) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	p.mu.Unlock()
	if sc.CPUs <= 0 {
		sc.CPUs = 1
	}
	if sc.CPUs > 10 {
		return nil, fmt.Errorf("sysplex: %q: a system is a 1-10 way TCMP", sc.Name)
	}
	if sc.MIPSPerCPU == 0 {
		sc.MIPSPerCPU = 60
	}
	xsys, err := p.plex.Join(sc.Name)
	if err != nil {
		return nil, err
	}
	// Heartbeats must flow from the moment of joining: building the
	// subsystem stack below can take longer than the failure detection
	// interval on a loaded host, and a silent newcomer would be
	// partitioned right back out.
	var stopXCF func()
	built := false
	if p.cfg.Background {
		stopXCF = xsys.StartBackground()
		defer func() {
			if !built {
				stopXCF()
				xsys.Leave()
			}
		}()
	}
	p.mu.Lock()
	lockS, front := p.lockS, p.front
	p.mu.Unlock()
	locks, err := lockmgr.New(ctx, xsys, lockS, p.clock)
	if err != nil {
		return nil, err
	}
	logger, err := logr.New(logr.Config{
		System: sc.Name, Front: front, Farm: p.farm, Volume: "SYSP01",
		Timer: p.timer, Clock: p.clock, Metrics: p.logReg,
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range p.cfg.LogStreams {
		if _, err := logger.Connect(ctx, spec); err != nil {
			return nil, err
		}
	}
	engine, err := db.Open(ctx, db.Config{
		Name: databaseName, System: sc.Name, Farm: p.farm, Volume: "SYSP01",
		Facility: front, Locks: locks, Clock: p.clock, Logger: logger,
		LockTimeout: p.cfg.LockTimeout,
	})
	if err != nil {
		return nil, err
	}
	for _, tc := range p.cfg.Tables {
		if err := engine.OpenTable(ctx, tc.Name, tc.Pages); err != nil {
			return nil, err
		}
	}
	wm, err := wlm.New(xsys, float64(sc.CPUs)*sc.MIPSPerCPU, p.cfg.Policy, p.clock)
	if err != nil {
		return nil, err
	}
	region := txmgr.New(xsys, engine, wm, p.clock)
	jesList, err := front.ListStructure("JES2CKPT")
	if err != nil {
		return nil, err
	}
	jesExec, err := jes.NewExecutor(ctx, jesList, sc.Name, p.clock)
	if err != nil {
		return nil, err
	}
	secCache, err := front.CacheStructure("IRRXCF00")
	if err != nil {
		return nil, err
	}
	sec, err := racf.New(ctx, sc.Name, secCache, p.racfDB, 256)
	if err != nil {
		return nil, err
	}
	s := &System{
		name:    sc.Name,
		xsys:    xsys,
		tod:     timer.NewLocalTOD(sc.Name, p.timer),
		locks:   locks,
		engine:  engine,
		wlm:     wm,
		region:  region,
		jesExec: jesExec,
		sec:     sec,
		logger:  logger,
	}

	// Register already-known programs and job classes on the newcomer.
	p.mu.Lock()
	for name, spec := range p.programs {
		region.RegisterProgram(name, spec.service, spec.fn)
	}
	for class, h := range p.jobs {
		jesExec.Register(class, h)
	}
	p.systems[sc.Name] = s
	p.mu.Unlock()

	// Single network image: the region appears under the generic name.
	if err := p.net.Register(ctx, GenericCICS, "CICS."+sc.Name, sc.Name); err != nil {
		return nil, err
	}
	// ARM elements: the database instance restarts cross-system (its
	// restarter performs peer recovery on the target), the region
	// restarts with it in the same restart group.
	dbElem := "DB2." + sc.Name
	cicsElem := "CICS." + sc.Name
	group := "GRP." + sc.Name
	p.arm.Register(dbElem, sc.Name, arm.ElementPolicy{CrossSystem: true, RestartGroup: group, Level: 1})
	p.arm.Register(cicsElem, sc.Name, arm.ElementPolicy{CrossSystem: true, RestartGroup: group, Level: 2})
	p.bindRestarter(sc.Name)

	built = true
	if p.cfg.Background {
		s.stopBg = append(s.stopBg, stopXCF)
		p.startBackground(s)
	}
	p.mu.Lock()
	mon := p.rmfMon
	p.mu.Unlock()
	if mon != nil {
		mon.AddSystem(sc.Name, systemSource(s))
	}
	return s, nil
}

// bindRestarter installs ARM restart processing on a target system:
// restarting a failed database element means performing peer recovery
// for its system's in-flight work.
func (p *Sysplex) bindRestarter(target string) {
	p.arm.BindRestarter(target, func(e arm.Element) error {
		p.mu.Lock()
		s := p.systems[target]
		p.mu.Unlock()
		if s == nil {
			return fmt.Errorf("sysplex: restarter: no subsystems on %s", target)
		}
		var failedSys string
		fmt.Sscanf(e.Name, "DB2.%s", &failedSys)
		if failedSys != "" && failedSys != target {
			rep, err := s.engine.RecoverPeer(context.Background(), failedSys)
			if err != nil {
				return err
			}
			p.mu.Lock()
			p.recovery = append(p.recovery, rep)
			p.mu.Unlock()
		}
		return nil
	})
}

// startBackground launches the non-XCF background services (XCF
// heartbeats were already started at join time by AddSystem).
func (p *Sysplex) startBackground(s *System) {
	s.jesExec.Start(2 * time.Millisecond)
	s.stopBg = append(s.stopBg, s.jesExec.Stop)

	exchange := p.clock.NewTicker(20 * time.Millisecond)
	castout := p.clock.NewTicker(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-exchange.C():
				if p.plex.State(s.name) == xcf.StateActive {
					s.wlm.ExchangeOnce()
				}
			case <-castout.C():
				if p.plex.State(s.name) == xcf.StateActive {
					s.engine.CastoutOnce(context.Background(), 64)
				}
			}
		}
	}()
	var once sync.Once
	s.stopBg = append(s.stopBg, func() {
		once.Do(func() {
			exchange.Stop()
			castout.Stop()
			close(done)
		})
	})
}

// Name returns the sysplex name.
func (p *Sysplex) Name() string { return p.cfg.Name }

// Farm exposes the shared DASD farm.
func (p *Sysplex) Farm() *dasd.Farm { return p.farm }

// Facility exposes the current *primary* coupling facility as a CF
// node (an in-process facility, or a cflink client when the policy
// names a remote fleet — the one serving reads either way). Structure
// commands flow through the CFRM front — use CFRM() for fleet state
// and duplexing metrics.
func (p *Sysplex) Facility() cf.Node {
	return p.cfres.Primary()
}

// CFRM exposes the coupling-facility resource manager: policy, fleet
// status, failure reporting, and duplexing/failover metrics.
func (p *Sysplex) CFRM() *cfrm.Manager { return p.cfres }

// RebuildCouplingFacility performs a planned structure rebuild: every
// structure moves off the current primary facility (maintenance, or
// recovery back to redundancy after a failure) with no service
// interruption. It is a thin call into the CFRM state machine:
//
//  1. if the structures are simplex, CFRM first duplexes them into a
//     fresh candidate facility — a system-managed copy of every
//     structure's state, all-or-nothing: on any error the old facility
//     stays current and intact;
//  2. the secondary is promoted to primary and the old facility is
//     retired (never reused);
//  3. under a duplexing policy, CFRM synchronously re-duplexes into the
//     next candidate so the rebuild ends with full redundancy.
//
// This is the only way a structure moves: exploiters hold the CFRM
// front, which re-targets their commands. Transactions keep flowing.
func (p *Sysplex) RebuildCouplingFacility() error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped
	}
	p.mu.Unlock()
	return p.cfres.Rebuild()
}

// XCF exposes the base sysplex services.
func (p *Sysplex) XCF() *xcf.Sysplex { return p.plex }

// ARM exposes the automatic restart manager.
func (p *Sysplex) ARM() *arm.Manager { return p.arm }

// Network exposes the VTAM generic resource image.
func (p *Sysplex) Network() *vtam.Network { return p.net }

// Timer exposes the sysplex timer.
func (p *Sysplex) Timer() *timer.Timer { return p.timer }

// Clock exposes the sysplex clock, e.g. for building virtual-clock
// deadlines with vclock.WithTimeout (DESIGN §10).
func (p *Sysplex) Clock() vclock.Clock { return p.clock }

// RMF exposes the measurement subsystem's monitor: interval records,
// rollups, and the HTTP handler. Nil when Background is false.
func (p *Sysplex) RMF() *rmf.Monitor {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rmfMon
}

// LoggerMetrics exposes the sysplex-wide logr.* instrumentation
// (every member's System Logger charges the same registry).
func (p *Sysplex) LoggerMetrics() *metrics.Registry { return p.logReg }

// DeadlockDetector exposes the sysplex-wide lock deadlock detector.
func (p *Sysplex) DeadlockDetector() *lockmgr.Detector { return p.det }

// System returns a member by name.
func (p *Sysplex) System(name string) (*System, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.systems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSystem, name)
	}
	return s, nil
}

// ActiveSystems lists active member names, sorted.
func (p *Sysplex) ActiveSystems() []string { return p.plex.ActiveSystems() }

// RecoveryReports returns the peer-recovery reports performed so far.
func (p *Sysplex) RecoveryReports() []db.RecoveryReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]db.RecoveryReport(nil), p.recovery...)
}

// RegisterProgram installs application logic on every system, present
// and future.
func (p *Sysplex) RegisterProgram(name string, serviceMIPSsec float64, fn Program) {
	p.mu.Lock()
	p.programs[name] = programSpec{service: serviceMIPSsec, fn: fn}
	systems := make([]*System, 0, len(p.systems))
	for _, s := range p.systems {
		systems = append(systems, s)
	}
	p.mu.Unlock()
	for _, s := range systems {
		s.region.RegisterProgram(name, serviceMIPSsec, fn)
	}
}

// RegisterJobClass installs batch job logic on every system's JES
// executor, present and future.
func (p *Sysplex) RegisterJobClass(class string, h jes.Handler) {
	p.mu.Lock()
	p.jobs[class] = h
	systems := make([]*System, 0, len(p.systems))
	for _, s := range p.systems {
		systems = append(systems, s)
	}
	p.mu.Unlock()
	for _, s := range systems {
		s.jesExec.Register(class, h)
	}
}

// SubmitJob places a batch job on the shared JES queue; any system may
// run it.
func (p *Sysplex) SubmitJob(ctx context.Context, class string, payload []byte) (string, error) {
	return p.jesQ.Submit(ctx, class, payload, "USER")
}

// JobResult fetches a completed job.
func (p *Sysplex) JobResult(ctx context.Context, id string) (jes.Job, error) {
	return p.jesQ.Result(ctx, id)
}

// WaitJob polls for a job's completion up to timeout; a cancelled or
// deadline-expired context ends the wait early.
func (p *Sysplex) WaitJob(ctx context.Context, id string, timeout time.Duration) (jes.Job, error) {
	deadline := p.clock.Now().Add(timeout)
	for {
		if err := vclock.Check(ctx, p.clock); err != nil {
			return jes.Job{}, err
		}
		job, err := p.jesQ.Result(ctx, id)
		if err == nil {
			return job, nil
		}
		if !errors.Is(err, jes.ErrNotDone) && !errors.Is(err, jes.ErrNotFound) {
			return jes.Job{}, err
		}
		if !p.clock.Now().Before(deadline) {
			return jes.Job{}, fmt.Errorf("sysplex: job %s: timeout", id)
		}
		p.clock.Sleep(time.Millisecond)
	}
}

// JES exposes the shared job queue.
func (p *Sysplex) JES() *jes.Queue { return p.jesQ }

// Submit runs a transaction entering at the named system (it may still
// be dynamically routed elsewhere).
func (p *Sysplex) Submit(ctx context.Context, system, program string, input []byte) ([]byte, error) {
	s, err := p.System(system)
	if err != nil {
		return nil, err
	}
	return s.region.Submit(ctx, program, input)
}

// SubmitViaLogon resolves the generic resource name to an instance
// (the user "just logs on to CICS") and submits there. A bind that
// races with a system leaving or failing is re-driven onto a survivor,
// as VTAM does for session binds.
func (p *Sysplex) SubmitViaLogon(ctx context.Context, program string, input []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		sess, err := p.net.Logon(ctx, GenericCICS)
		if err != nil {
			return nil, err
		}
		out, err := p.Submit(ctx, sess.System, program, input)
		p.net.Logoff(vclock.Detach(ctx), sess.ID)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, ErrNoSystem) || errors.Is(err, xcf.ErrSystemDown) {
			lastErr = err // stale bind: re-drive the logon
			continue
		}
		return nil, err
	}
	return nil, lastErr
}

// ParallelQuery fans a table scan across all active systems (§2.3
// decision support) and aggregates the sub-query answers.
func (p *Sysplex) ParallelQuery(ctx context.Context, table, op, prefix string) (txmgr.QueryResult, error) {
	active := p.ActiveSystems()
	if len(active) == 0 {
		return txmgr.QueryResult{}, ErrStopped
	}
	s, err := p.System(active[0])
	if err != nil {
		return txmgr.QueryResult{}, err
	}
	return s.region.ParallelQuery(ctx, active, table, op, prefix)
}

// KillSystem simulates abrupt loss of a system: it stops cold, and the
// surviving systems' heartbeat monitoring detects, partitions, fences,
// and recovers it (background mode), exactly the §2.5 scenario.
func (p *Sysplex) KillSystem(name string) error {
	s, err := p.System(name)
	if err != nil {
		return err
	}
	for _, stop := range s.stopBg {
		stop()
	}
	s.xsys.Kill()
	return nil
}

// PartitionSystem forces immediate partition (deterministic variant of
// KillSystem for tests and demos without waiting for detection).
func (p *Sysplex) PartitionSystem(name string) error {
	s, err := p.System(name)
	if err != nil {
		return err
	}
	for _, stop := range s.stopBg {
		stop()
	}
	s.xsys.Kill()
	p.plex.PartitionNow(name)
	return nil
}

// RemoveSystem performs a planned removal (§2.5 planned outage): the
// system leaves gracefully, its network presence is withdrawn, and no
// fencing or recovery is needed.
func (p *Sysplex) RemoveSystem(ctx context.Context, name string) error {
	s, err := p.System(name)
	if err != nil {
		return err
	}
	for _, stop := range s.stopBg {
		stop()
	}
	p.net.Deregister(ctx, GenericCICS, "CICS."+name)
	p.arm.Deregister("DB2." + name)
	p.arm.Deregister("CICS." + name)
	s.xsys.Leave()
	p.mu.Lock()
	delete(p.systems, name)
	mon := p.rmfMon
	p.mu.Unlock()
	if mon != nil {
		mon.RemoveSystem(name)
	}
	return nil
}

// Stop shuts the sysplex down.
func (p *Sysplex) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	systems := make([]*System, 0, len(p.systems))
	for _, s := range p.systems {
		systems = append(systems, s)
	}
	stopCF := p.stopCF
	mon := p.rmfMon
	p.mu.Unlock()
	if mon != nil {
		mon.Stop()
	}
	if stopCF != nil {
		stopCF()
	}
	for _, s := range systems {
		for _, stop := range s.stopBg {
			stop()
		}
		s.locks.Shutdown()
	}
	// Clean shutdown of the DASD farm: flush acknowledged writes and
	// release the volume backends (no-op for an in-memory farm).
	p.farm.Close()
}

// SystemStats is a per-system activity snapshot.
type SystemStats struct {
	System string
	Region txmgr.Stats
	DB     db.Stats
	Locks  lockmgr.Stats
	Util   float64
}

// Stats snapshots every active system.
func (p *Sysplex) Stats() []SystemStats {
	p.mu.Lock()
	systems := make([]*System, 0, len(p.systems))
	for _, s := range p.systems {
		systems = append(systems, s)
	}
	p.mu.Unlock()
	sort.Slice(systems, func(i, j int) bool { return systems[i].name < systems[j].name })
	out := make([]SystemStats, 0, len(systems))
	for _, s := range systems {
		out = append(out, SystemStats{
			System: s.name,
			Region: s.region.Stats(),
			DB:     s.engine.Stats(),
			Locks:  s.locks.Stats(),
			Util:   s.wlm.Utilization(),
		})
	}
	return out
}
