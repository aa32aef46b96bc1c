// Package cf emulates the S/390 Coupling Facility (§3.3): a shared
// memory server attached to every system over high-speed coupling
// links, whose storage is partitioned into structures subscribing to
// one of three behaviour models — lock, cache, and list.
//
// The architectural contract reproduced here:
//
//   - Commands complete CPU-synchronously in the no-contention case
//     (plain in-process calls; per-command latency is injectable so
//     experiments can model the microsecond-class link round trip).
//   - Cache cross-invalidation and list transition signalling are
//     delivered by the CF flipping bits in *system-owned* bit vectors
//     with no interrupt and no software involvement on the target;
//     targets observe state with a local vector-test operation (the
//     paper's "new S/390 cpu instructions").
//   - Structures are named, typed at allocation, and may persist across
//     connector failure (retained lock record data supports peer
//     recovery).
//
// Multiple facilities can be configured for availability; package-level
// helpers support rebuilding structures into an alternate CF.
package cf

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// Errors returned by facility and structure commands.
var (
	ErrCFDown        = errors.New("cf: facility failed")
	ErrNoStructure   = errors.New("cf: no such structure")
	ErrWrongModel    = errors.New("cf: structure has a different model")
	ErrExists        = errors.New("cf: structure already allocated")
	ErrStorage       = errors.New("cf: insufficient facility storage")
	ErrNotConnected  = errors.New("cf: connector not connected to structure")
	ErrLockHeld      = errors.New("cf: serializing lock entry held")
	ErrEntryNotFound = errors.New("cf: list entry not found")
	ErrListFull      = errors.New("cf: list structure entry limit reached")
	ErrCacheFull     = errors.New("cf: cache structure directory full")
	ErrBadArgument   = errors.New("cf: bad argument")
)

// Lock is the command set of a lock-model structure (§3.3.1). It is
// satisfied by both a plain *LockStructure and the typed front over a
// duplexed pair or a transport handle (handle.go), so exploiters are
// indifferent to whether the structure is simplex, duplexed across two
// facilities, or in another process.
//
// Command methods take a context.Context first: a cancelled context or
// an expired vclock deadline fails the command with the context's error
// before any structure state changes (see DESIGN §10). Methods without
// a context are diagnostics over in-memory state and issue no CF
// command.
type Lock interface {
	Name() string
	Entries() int
	Connect(ctx context.Context, conn string) error
	HashResource(resource string) int
	Obtain(ctx context.Context, idx int, conn string, mode LockMode) (ObtainResult, error)
	ForceObtain(ctx context.Context, idx int, conn string, mode LockMode) error
	Release(ctx context.Context, idx int, conn string, mode LockMode) error
	Interest(idx int, conn string) (share, excl int, err error)
	SetRecord(ctx context.Context, conn, resource string, mode LockMode) error
	DeleteRecord(ctx context.Context, conn, resource string) error
	Records(ctx context.Context, conn string) ([]LockRecord, error)
	RetainedConnectors() []string
	// Batch executes an envelope of lock-model commands in one pipeline
	// traversal (one link crossing on a transport handle). The reply's
	// Errs holds one outcome per subcommand and its Sub their replies;
	// the error is batch-level (validation, cancellation, or facility
	// failure — in which case the reply is empty). See DESIGN §13.
	Batch(ctx context.Context, cmds []Cmd) (Reply, error)
}

// Cache is the command set of a cache-model structure (§3.3.2).
// Implementations and context semantics are those of Lock.
type Cache interface {
	Name() string
	Connect(ctx context.Context, conn string, vector *BitVector) error
	ReadAndRegister(ctx context.Context, conn, name string, vecIdx int) (ReadResult, error)
	WriteAndInvalidate(ctx context.Context, conn, name string, data []byte, cache, changed bool, vecIdx int) error
	Unregister(ctx context.Context, conn, name string) error
	CastoutBegin(ctx context.Context, conn, name string) ([]byte, uint64, error)
	CastoutEnd(ctx context.Context, conn, name string, version uint64) error
	ChangedBlocks() []string
	Registered(name string) []string
	Version(name string) uint64
	// Batch executes an envelope of cache-model commands; semantics as
	// Lock.Batch.
	Batch(ctx context.Context, cmds []Cmd) (Reply, error)
}

// List is the command set of a list-model structure (§3.3.3).
// Implementations and context semantics are those of Lock.
type List interface {
	Name() string
	Lists() int
	Connect(ctx context.Context, conn string, vector *BitVector) error
	SetLock(ctx context.Context, idx int, conn string) error
	ReleaseLock(ctx context.Context, idx int, conn string) error
	LockHolder(idx int) string
	Write(ctx context.Context, conn string, list int, id, key string, data []byte, order Order, cond Cond) error
	Read(ctx context.Context, conn, id string, cond Cond) (ListEntry, error)
	ReadFirst(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error)
	Pop(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error)
	Delete(ctx context.Context, conn, id string, cond Cond) error
	Move(ctx context.Context, conn, id string, toList int, order Order, cond Cond) error
	SetAdjunct(ctx context.Context, conn, id, adjunct string, cond Cond) error
	Len(list int) int
	Entries(list int) []ListEntry
	TotalEntries() int
	Monitor(ctx context.Context, conn string, list int, vecIdx int) error
	Unmonitor(conn string, list int)
	// Batch executes an envelope of list-model commands; semantics as
	// Lock.Batch.
	Batch(ctx context.Context, cmds []Cmd) (Reply, error)
}

// Front is the facility-shaped command surface shared by a simplex
// *Facility and the *Duplexed primary/secondary pair. Exploiters and
// the sysplex façade allocate and locate structures through a Front
// without knowing whether commands are mirrored.
type Front interface {
	Name() string
	Metrics() *metrics.Registry
	StructureNames() []string
	SetSyncLatency(d time.Duration)
	FailConnector(conn string)
	DisconnectAll(conn string)
	AllocateLockStructure(name string, entries int) (Lock, error)
	AllocateCacheStructure(name string, maxEntries int) (Cache, error)
	AllocateListStructure(name string, nLists, nLocks, maxEntries int) (List, error)
	LockStructure(name string) (Lock, error)
	CacheStructure(name string) (Cache, error)
	ListStructure(name string) (List, error)
}

// Model identifies the behaviour model a structure was allocated with.
type Model int

// The three CF structure models of §3.3.
const (
	LockModel Model = iota + 1
	CacheModel
	ListModel
)

// String names the model.
func (m Model) String() string {
	switch m {
	case LockModel:
		return "lock"
	case CacheModel:
		return "cache"
	case ListModel:
		return "list"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Facility is one Coupling Facility.
//
// The command fast path (begin/charge) is lock-free: every command of
// every structure used to funnel through f.mu, which made the facility
// itself the scalability ceiling regardless of how finely the structures
// stripe their own state. Structure allocation and lookup remain
// mutex-guarded — they are off the command path.
type Facility struct {
	name  string
	clock vclock.Clock
	reg   *metrics.Registry

	mu         sync.Mutex // lintlock: level=60 (leaf) — guards structures, usedBytes
	structures map[string]structure
	totalBytes int64 // 0 = unconstrained; immutable after New
	usedBytes  int64

	// broken: every command begins with a single atomic load.
	broken atomic.Bool

	// syncLatency (nanoseconds) is charged on every command to model
	// the coupling link round trip (zero by default: functional tests
	// run at full speed; experiments inject microsecond values).
	syncLatency atomic.Int64

	// failAfter > 0 arms failure injection: the facility breaks after
	// that many more commands have begun (see FailAfter). Decremented
	// atomically; exactly the command that takes it to zero trips the
	// facility, so arm-at-N stays deterministic under concurrency.
	failAfter atomic.Int64
}

// cmdMetrics holds pre-resolved instrumentation handles for one command
// kind. Structures resolve these once at allocation so the per-command
// charge is two atomic bumps instead of two registry map lookups.
type cmdMetrics struct {
	ops *metrics.Counter
	lat *metrics.Histogram
}

// cmdMetrics resolves the handles for kind against this facility's
// registry. Called at structure allocation (and by cloneInto, which must
// re-resolve against the destination facility's registry).
func (f *Facility) cmdMetrics(kind string) cmdMetrics {
	return cmdMetrics{
		ops: f.reg.Counter("cf.cmd." + kind),
		lat: f.reg.Histogram("cf.cmd.latency"),
	}
}

type structure interface {
	model() Model
	disconnect(conn string)
	failConnector(conn string)
	storageBytes() int64
	fac() *Facility
	// cloneInto re-allocates the structure, with a deep copy of its
	// current state, inside dst. System-owned bit vectors are shared
	// between source and clone: the CF flips bits in vectors owned by
	// the *systems*, so both replicas of a duplexed pair signal through
	// the same vectors. Used to establish duplexing and to rebuild.
	cloneInto(dst *Facility) (structure, error)
}

// New returns a facility with unconstrained storage.
func New(name string, clock vclock.Clock) *Facility {
	return NewWithStorage(name, clock, 0)
}

// NewWithStorage returns a facility whose structure allocations are
// bounded by totalBytes of CF storage (§3.3: "the CF storage resources
// can be dynamically partitioned and allocated into CF structures").
// totalBytes <= 0 means unconstrained.
func NewWithStorage(name string, clock vclock.Clock, totalBytes int64) *Facility {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Facility{
		name:       name,
		clock:      clock,
		reg:        metrics.NewRegistry(),
		structures: make(map[string]structure),
		totalBytes: totalBytes,
	}
}

// Storage reports (total, used) structure storage in bytes. Total is 0
// when unconstrained.
func (f *Facility) Storage() (total, used int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalBytes, f.usedBytes
}

// Name returns the facility name.
func (f *Facility) Name() string { return f.name }

// Metrics exposes the facility's instrumentation.
func (f *Facility) Metrics() *metrics.Registry { return f.reg }

// SetSyncLatency injects a per-command service time (coupling link +
// CF processor). Zero disables.
func (f *Facility) SetSyncLatency(d time.Duration) {
	f.syncLatency.Store(int64(d))
}

// Fail marks the whole facility down: every subsequent command returns
// ErrCFDown. Used to drive structure-rebuild scenarios.
func (f *Facility) Fail() {
	f.broken.Store(true)
}

// FailAfter arms failure injection: the facility fails (as by Fail)
// after n more commands have begun, letting tests and benches kill a CF
// at a deterministic point inside a command stream rather than from an
// external timer. n <= 0 disarms.
func (f *Facility) FailAfter(n int) {
	if n <= 0 {
		n = 0
	}
	f.failAfter.Store(int64(n))
}

// Failed reports whether the facility is down.
func (f *Facility) Failed() bool {
	return f.broken.Load()
}

// charge models the synchronous command cost and records metrics. It is
// called by every structure command with the facility healthy-checked,
// using handles the structure resolved at allocation.
func (f *Facility) charge(m cmdMetrics, start time.Time) {
	m.ops.Inc()
	m.lat.Observe(f.clock.Since(start))
}

// begin performs the context gate, down-check, and latency charge
// shared by commands. It is lock-free: the context poll, a broken load,
// an (almost always skipped) armed failure-injection decrement, and the
// latency load. The context is checked before anything else so a
// cancelled or deadline-expired command fails with the context error
// and zero structure effect.
func (f *Facility) begin(ctx context.Context) (time.Time, error) {
	if err := vclock.Check(ctx, f.clock); err != nil {
		return time.Time{}, err
	}
	if f.broken.Load() {
		return time.Time{}, ErrCFDown
	}
	if f.failAfter.Load() > 0 && f.failAfter.Add(-1) == 0 {
		// Exactly one command observes the decrement to zero — the Nth
		// since arming. That command still completes; the next one
		// finds the facility broken. Concurrent commands that raced the
		// counter below zero began before the failure and also
		// complete; a negative counter reads as disarmed.
		f.broken.Store(true)
	}
	start := f.clock.Now()
	if lat := time.Duration(f.syncLatency.Load()); lat > 0 {
		f.clock.Sleep(lat)
	}
	return start, nil
}

// StructureNames lists allocated structures, sorted.
func (f *Facility) StructureNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.structures))
	for n := range f.structures {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Deallocate frees a structure.
func (f *Facility) Deallocate(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken.Load() {
		return ErrCFDown
	}
	s, ok := f.structures[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoStructure, name)
	}
	delete(f.structures, name)
	f.usedBytes -= s.storageBytes()
	return nil
}

// DisconnectAll detaches conn from every structure in the facility
// (normal connector shutdown: interest is cleanly removed).
func (f *Facility) DisconnectAll(conn string) {
	f.mu.Lock()
	structs := make([]structure, 0, len(f.structures))
	for _, s := range f.structures {
		structs = append(structs, s)
	}
	f.mu.Unlock()
	for _, s := range structs {
		s.disconnect(conn)
	}
}

// FailConnector marks conn abnormally terminated in every structure:
// cache registrations are purged, list monitors dropped, and lock
// interest cleared — but persistent lock records are *retained* for
// peer recovery, as §3.3.1 requires.
func (f *Facility) FailConnector(conn string) {
	f.mu.Lock()
	structs := make([]structure, 0, len(f.structures))
	for _, s := range f.structures {
		structs = append(structs, s)
	}
	f.mu.Unlock()
	for _, s := range structs {
		s.failConnector(conn)
	}
}

func (f *Facility) allocate(name string, s structure) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken.Load() {
		return ErrCFDown
	}
	if _, ok := f.structures[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	need := s.storageBytes()
	if f.totalBytes > 0 && f.usedBytes+need > f.totalBytes {
		return fmt.Errorf("%w: %q needs %d bytes, %d of %d free",
			ErrStorage, name, need, f.totalBytes-f.usedBytes, f.totalBytes)
	}
	f.usedBytes += need
	f.structures[name] = s
	return nil
}

// structureByName returns the structure regardless of the facility's
// broken state. The duplexing front and rebuild machinery use it: a
// structure's in-memory image survives the facility failing, standing
// in for the connector-held state a real user-managed rebuild would
// re-populate from.
func (f *Facility) structureByName(name string) structure {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.structures[name]
}

func (f *Facility) lookup(name string, m Model) (structure, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken.Load() {
		return nil, ErrCFDown
	}
	s, ok := f.structures[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoStructure, name)
	}
	if s.model() != m {
		return nil, fmt.Errorf("%w: %q is %s, not %s", ErrWrongModel, name, s.model(), m)
	}
	return s, nil
}
