// Package dasd emulates the S/390 shared direct-access storage substrate
// of Figure 1: volumes fully connected to every system over multiple
// channel paths with automatic path failover, hardware RESERVE/RELEASE
// serialization, and per-system I/O fencing (used by the sysplex
// failure-management path to isolate sick systems from shared data, as
// described in §3.2 of the paper).
//
// Latency is injectable per device so discrete-event experiments can
// model millisecond-class I/O while functional tests run at full speed.
package dasd

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// Errors returned by device I/O.
var (
	ErrBroken      = errors.New("dasd: device failed")
	ErrFenced      = errors.New("dasd: system is fenced from device")
	ErrNoPaths     = errors.New("dasd: no online channel paths to device")
	ErrReserved    = errors.New("dasd: device reserved by another system")
	ErrBadBlock    = errors.New("dasd: block number out of range")
	ErrNoSuchVol   = errors.New("dasd: no such volume")
	ErrExists      = errors.New("dasd: dataset already exists")
	ErrNoSpace     = errors.New("dasd: volume out of space")
	ErrNoDataset   = errors.New("dasd: no such dataset")
	ErrShortRecord = errors.New("dasd: record larger than block size")
)

// BlockSize is the emulated physical block size (a 4K CKD-ish page).
const BlockSize = 4096

// Farm is the collection of shared volumes visible to every system in
// the sysplex, together with the dataset catalog.
type Farm struct {
	mu      sync.Mutex
	clock   vclock.Clock
	dir     string // data directory; "" = in-memory farm
	volumes map[string]*Volume
	catalog map[string]*Dataset // dataset name -> dataset
	metrics *metrics.Registry
}

// NewFarm returns an empty Farm using the given clock for I/O latency.
func NewFarm(clock vclock.Clock) *Farm {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Farm{
		clock:   clock,
		volumes: make(map[string]*Volume),
		catalog: make(map[string]*Dataset),
		metrics: metrics.NewRegistry(),
	}
}

// OpenFarm returns a durable Farm rooted at dir: every volume is
// file-backed (one <volser>.vol + <volser>.map pair under dir), and any
// volumes already present from a previous life are reattached with
// their dataset catalogs rebuilt from the persisted extent maps. This
// is the cold-restart entry point; sysplex.Open builds on it.
func OpenFarm(clock vclock.Clock, dir string) (*Farm, error) {
	if dir == "" {
		return nil, errors.New("dasd: OpenFarm needs a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dasd: creating data directory: %w", err)
	}
	f := NewFarm(clock)
	f.dir = dir
	volsers, err := scanVolsers(dir)
	if err != nil {
		return nil, fmt.Errorf("dasd: scanning %s: %w", dir, err)
	}
	sort.Strings(volsers)
	for _, vs := range volsers {
		store, m, err := openFileStore(dir, vs)
		if err != nil {
			return nil, err
		}
		store.observeFsync = f.fsyncObserver()
		if m.Paths <= 0 {
			m.Paths = 1
		}
		v := f.attachVolume(vs, store, m.Paths)
		v.nextExtent = m.NextExtent
		for _, e := range m.Datasets {
			f.catalog[e.Name] = &Dataset{vol: v, name: e.Name, first: e.First, blocks: e.Blocks}
		}
	}
	return f, nil
}

// Metrics exposes the farm's instrumentation registry.
func (f *Farm) Metrics() *metrics.Registry { return f.metrics }

// Durable reports whether the farm's volumes are file-backed.
func (f *Farm) Durable() bool { return f.dir != "" }

// fsyncObserver wires a file store's group-commit fsyncs into the
// farm registry.
func (f *Farm) fsyncObserver() func(time.Duration) {
	count := f.metrics.Counter("dasd.fsync.count")
	lat := f.metrics.Histogram("dasd.fsync.latency")
	return func(d time.Duration) {
		count.Inc()
		lat.Observe(d)
	}
}

// attachVolume registers a volume over an existing store. Caller does
// not hold f.mu.
func (f *Farm) attachVolume(volser string, store Store, pathsPerSystem int) *Volume {
	v := &Volume{
		farm:      f,
		volser:    volser,
		store:     store,
		nPaths:    pathsPerSystem,
		paths:     make(map[string][]bool),
		pathIO:    make(map[string][]int64),
		fenced:    make(map[string]bool),
		reads:     f.metrics.Counter("dasd.read"),
		writes:    f.metrics.Counter("dasd.write"),
		volReads:  f.metrics.Counter("dasd.vol." + volser + ".read"),
		volWrites: f.metrics.Counter("dasd.vol." + volser + ".write"),
	}
	f.mu.Lock()
	f.volumes[volser] = v
	f.mu.Unlock()
	return v
}

// AddVolume creates a volume with the given serial and capacity in
// blocks. Each system referenced later gets pathsPerSystem channel
// paths. On a durable farm the volume is file-backed; if it already
// exists from a previous life (reattached by OpenFarm) and its capacity
// matches, the existing volume is returned so first-boot and restart
// code paths are identical.
func (f *Farm) AddVolume(volser string, blocks, pathsPerSystem int) (*Volume, error) {
	if blocks <= 0 || pathsPerSystem <= 0 {
		return nil, fmt.Errorf("dasd: volume %q needs positive blocks and paths", volser)
	}
	f.mu.Lock()
	if v, ok := f.volumes[volser]; ok {
		f.mu.Unlock()
		if f.Durable() {
			if v.Blocks() != blocks {
				return nil, fmt.Errorf("dasd: volume %q exists with %d blocks, want %d", volser, v.Blocks(), blocks)
			}
			return v, nil
		}
		return nil, fmt.Errorf("dasd: volume %q already exists", volser)
	}
	f.mu.Unlock()
	var store Store
	if f.Durable() {
		fs, err := createFileStore(f.dir, volser, blocks, pathsPerSystem)
		if err != nil {
			return nil, err
		}
		fs.observeFsync = f.fsyncObserver()
		store = fs
	} else {
		store = newMemStore(blocks)
	}
	return f.attachVolume(volser, store, pathsPerSystem), nil
}

// Volume returns the named volume.
func (f *Farm) Volume(volser string) (*Volume, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.volumes[volser]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchVol, volser)
	}
	return v, nil
}

// Volumes returns the volume serials in the farm.
func (f *Farm) Volumes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.volumes))
	for k := range f.volumes {
		out = append(out, k)
	}
	return out
}

// FenceSystem fences sys from every volume in the farm; all subsequent
// I/O from sys fails with ErrFenced. This is the I/O isolation step of
// fail-stop system partitioning.
func (f *Farm) FenceSystem(sys string) {
	f.mu.Lock()
	vols := make([]*Volume, 0, len(f.volumes))
	for _, v := range f.volumes {
		vols = append(vols, v)
	}
	f.mu.Unlock()
	for _, v := range vols {
		v.Fence(sys)
	}
}

// UnfenceSystem lifts a farm-wide fence (system re-IPL).
func (f *Farm) UnfenceSystem(sys string) {
	f.mu.Lock()
	vols := make([]*Volume, 0, len(f.volumes))
	for _, v := range f.volumes {
		vols = append(vols, v)
	}
	f.mu.Unlock()
	for _, v := range vols {
		v.Unfence(sys)
	}
}

// Allocate creates a dataset of nblocks contiguous blocks on the named
// volume and registers it in the catalog.
func (f *Farm) Allocate(volser, name string, nblocks int) (*Dataset, error) {
	v, err := f.Volume(volser)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.catalog[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	v.mu.Lock()
	if v.nextExtent+nblocks > v.store.Blocks() {
		v.mu.Unlock()
		return nil, fmt.Errorf("%w: %q allocating %q", ErrNoSpace, volser, name)
	}
	first := v.nextExtent
	v.nextExtent += nblocks
	v.mu.Unlock()
	ds := &Dataset{vol: v, name: name, first: first, blocks: nblocks}
	f.catalog[name] = ds
	if f.Durable() {
		if err := f.saveExtentsLocked(v); err != nil {
			delete(f.catalog, name)
			v.mu.Lock()
			v.nextExtent = first
			v.mu.Unlock()
			return nil, fmt.Errorf("dasd: persisting extent map for %q: %w", volser, err)
		}
	}
	return ds, nil
}

// saveExtentsLocked persists volume v's extent map (called with f.mu
// held) so the catalog survives a cold restart.
func (f *Farm) saveExtentsLocked(v *Volume) error {
	m := ExtentMap{Blocks: v.store.Blocks(), Paths: v.nPaths}
	for _, ds := range f.catalog {
		if ds.vol == v {
			m.Datasets = append(m.Datasets, Extent{Name: ds.name, First: ds.first, Blocks: ds.blocks})
		}
	}
	sort.Slice(m.Datasets, func(i, j int) bool { return m.Datasets[i].First < m.Datasets[j].First })
	v.mu.Lock()
	m.NextExtent = v.nextExtent
	v.mu.Unlock()
	return v.store.SaveExtents(m)
}

// Datasets returns the cataloged dataset names with the given prefix,
// sorted. Log-stream cold recovery scans its staging datasets this way.
func (f *Farm) Datasets(prefix string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name := range f.catalog {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Sync flushes every volume's acknowledged writes to durable storage
// (no-op on an in-memory farm). The façade calls it on clean shutdown.
func (f *Farm) Sync() error {
	f.mu.Lock()
	vols := make([]*Volume, 0, len(f.volumes))
	for _, v := range f.volumes {
		vols = append(vols, v)
	}
	f.mu.Unlock()
	var first error
	for _, v := range vols {
		if err := v.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and releases every volume's backend.
func (f *Farm) Close() error {
	f.mu.Lock()
	vols := make([]*Volume, 0, len(f.volumes))
	for _, v := range f.volumes {
		vols = append(vols, v)
	}
	f.mu.Unlock()
	var first error
	for _, v := range vols {
		if err := v.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Dataset looks up a cataloged dataset by name.
func (f *Farm) Dataset(name string) (*Dataset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDataset, name)
	}
	return ds, nil
}

// Volume is one shared DASD volume. The block medium behind it is a
// pluggable Store; everything sysplex-visible (paths, reserve, fencing,
// latency) lives here.
type Volume struct {
	farm   *Farm
	volser string
	store  Store

	mu         sync.Mutex
	nextExtent int

	nPaths int
	paths  map[string][]bool  // system -> per-path online flag (lazily all-online)
	pathIO map[string][]int64 // system -> per-path I/O count

	fenced   map[string]bool
	reserved string // system holding hardware reserve ("" = none)
	broken   bool   // device hard failure: every operation errors

	readLatency  time.Duration
	writeLatency time.Duration

	// Handles of the per-I/O counters, resolved once at attach: a lookup
	// by name builds the name and takes the registry's mutex.
	reads, writes       *metrics.Counter // dasd.read, dasd.write
	volReads, volWrites *metrics.Counter // dasd.vol.<volser>.read, .write
}

// Volser returns the volume serial.
func (v *Volume) Volser() string { return v.volser }

// Blocks returns the volume capacity in blocks.
func (v *Volume) Blocks() int { return v.store.Blocks() }

// Sync makes every acknowledged write on this volume durable. On the
// file backend concurrent callers coalesce into one group-commit
// fsync; on the in-memory backend it is a no-op. Sync deliberately
// does not take v.mu, so writers on other blocks proceed while a
// flush is in flight.
func (v *Volume) Sync() error { return v.store.Sync() }

// SetLatency configures simulated read/write latency applied per I/O.
func (v *Volume) SetLatency(read, write time.Duration) {
	v.mu.Lock()
	v.readLatency, v.writeLatency = read, write
	v.mu.Unlock()
}

// Fence blocks all future I/O from sys.
func (v *Volume) Fence(sys string) {
	v.mu.Lock()
	v.fenced[sys] = true
	// A fenced system also loses any hardware reserve it held, so
	// surviving systems are not deadlocked behind a dead holder.
	if v.reserved == sys {
		v.reserved = ""
	}
	v.mu.Unlock()
}

// Unfence restores I/O access for sys.
func (v *Volume) Unfence(sys string) {
	v.mu.Lock()
	delete(v.fenced, sys)
	v.mu.Unlock()
}

// Fenced reports whether sys is fenced from this volume.
func (v *Volume) Fenced(sys string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fenced[sys]
}

// Reserve obtains the hardware reserve for sys. It fails with
// ErrReserved if another system holds it (callers implement retry and
// holder-timeout policy; see package cds).
func (v *Volume) Reserve(sys string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.broken {
		return ErrBroken
	}
	if v.fenced[sys] {
		return ErrFenced
	}
	if v.reserved != "" && v.reserved != sys {
		v.farm.metrics.Counter("dasd.reserve.busy").Inc()
		return fmt.Errorf("%w (holder %s)", ErrReserved, v.reserved)
	}
	v.reserved = sys
	return nil
}

// Release drops the hardware reserve if held by sys.
func (v *Volume) Release(sys string) {
	v.mu.Lock()
	if v.reserved == sys {
		v.reserved = ""
	}
	v.mu.Unlock()
}

// BreakReserve forcibly clears a reserve held by holder (the timeout
// path for faulty processors). It is a no-op if holder no longer holds.
func (v *Volume) BreakReserve(holder string) {
	v.mu.Lock()
	if v.reserved == holder {
		v.reserved = ""
	}
	v.mu.Unlock()
}

// SetBroken marks the device hard-failed (true) or repaired (false).
// A failing device drops any reserve it was holding.
func (v *Volume) SetBroken(broken bool) {
	v.mu.Lock()
	v.broken = broken
	if broken {
		v.reserved = ""
	}
	v.mu.Unlock()
}

// Broken reports whether the device is hard-failed.
func (v *Volume) Broken() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.broken
}

// ReserveHolder returns the current reserve holder ("" if none).
func (v *Volume) ReserveHolder() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reserved
}

// VaryPath sets path idx for sys online or offline.
func (v *Volume) VaryPath(sys string, idx int, online bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.pathsLocked(sys)
	if idx < 0 || idx >= len(p) {
		return fmt.Errorf("dasd: path %d out of range for %s", idx, sys)
	}
	p[idx] = online
	return nil
}

// OnlinePaths reports the number of online paths from sys.
func (v *Volume) OnlinePaths(sys string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, on := range v.pathsLocked(sys) {
		if on {
			n++
		}
	}
	return n
}

// PathIO returns a copy of the per-path I/O counts for sys.
func (v *Volume) PathIO(sys string) []int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	src := v.pathIO[sys]
	out := make([]int64, len(src))
	copy(out, src)
	return out
}

func (v *Volume) pathsLocked(sys string) []bool {
	p, ok := v.paths[sys]
	if !ok {
		p = make([]bool, v.nPaths)
		for i := range p {
			p[i] = true
		}
		v.paths[sys] = p
		v.pathIO[sys] = make([]int64, v.nPaths)
	}
	return p
}

// selectPath picks the first online path (automatic reconfiguration:
// offline paths are skipped transparently) and charges the I/O to it.
func (v *Volume) selectPath(sys string) (int, error) {
	if v.broken {
		return -1, ErrBroken
	}
	if v.fenced[sys] {
		return -1, ErrFenced
	}
	if v.reserved != "" && v.reserved != sys {
		return -1, fmt.Errorf("%w (holder %s)", ErrReserved, v.reserved)
	}
	for i, on := range v.pathsLocked(sys) {
		if on {
			v.pathIO[sys][i]++
			return i, nil
		}
	}
	return -1, ErrNoPaths
}

// Read reads block number blk on behalf of sys. The returned slice is a
// copy. A never-written block reads as zeros. On the file backend a
// block whose checksum fails verification returns ErrTornBlock.
func (v *Volume) Read(sys string, blk int) ([]byte, error) {
	v.mu.Lock()
	if blk < 0 || blk >= v.store.Blocks() {
		v.mu.Unlock()
		return nil, fmt.Errorf("%w: %d on %s", ErrBadBlock, blk, v.volser)
	}
	if _, err := v.selectPath(sys); err != nil {
		v.mu.Unlock()
		return nil, err
	}
	lat := v.readLatency
	src, err := v.store.ReadBlock(blk)
	v.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]byte, BlockSize)
	copy(out, src)
	v.reads.Inc()
	v.volReads.Inc()
	if lat > 0 {
		v.farm.clock.Sleep(lat)
	}
	return out, nil
}

// Write writes block number blk on behalf of sys. Data longer than
// BlockSize is rejected; shorter data is zero-padded. On the file
// backend the write is acknowledged in-memory and becomes durable at
// the next Sync (group commit).
func (v *Volume) Write(sys string, blk int, data []byte) error {
	if len(data) > BlockSize {
		return ErrShortRecord
	}
	v.mu.Lock()
	if blk < 0 || blk >= v.store.Blocks() {
		v.mu.Unlock()
		return fmt.Errorf("%w: %d on %s", ErrBadBlock, blk, v.volser)
	}
	if _, err := v.selectPath(sys); err != nil {
		v.mu.Unlock()
		return err
	}
	lat := v.writeLatency
	buf := make([]byte, BlockSize)
	copy(buf, data)
	err := v.store.WriteBlock(blk, buf)
	v.mu.Unlock()
	if err != nil {
		return err
	}
	v.writes.Inc()
	v.volWrites.Inc()
	if lat > 0 {
		v.farm.clock.Sleep(lat)
	}
	return nil
}

// Dataset is a named contiguous extent of blocks on one volume, the
// unit used for couple data sets, table spaces, and logs.
type Dataset struct {
	vol    *Volume
	name   string
	first  int
	blocks int
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Blocks returns the dataset size in blocks.
func (d *Dataset) Blocks() int { return d.blocks }

// Volume returns the owning volume.
func (d *Dataset) Volume() *Volume { return d.vol }

// Read reads relative block blk of the dataset for sys.
func (d *Dataset) Read(sys string, blk int) ([]byte, error) {
	if blk < 0 || blk >= d.blocks {
		return nil, fmt.Errorf("%w: %d in dataset %s", ErrBadBlock, blk, d.name)
	}
	return d.vol.Read(sys, d.first+blk)
}

// Write writes relative block blk of the dataset for sys.
func (d *Dataset) Write(sys string, blk int, data []byte) error {
	if blk < 0 || blk >= d.blocks {
		return fmt.Errorf("%w: %d in dataset %s", ErrBadBlock, blk, d.name)
	}
	return d.vol.Write(sys, d.first+blk, data)
}

// Sync makes the dataset's acknowledged writes durable (whole-volume
// group commit; see Volume.Sync).
func (d *Dataset) Sync() error { return d.vol.Sync() }
