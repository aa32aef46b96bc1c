// Package logr emulates the MVS System Logger (IXGLOGR), the canonical
// exploiter of the CF list structure model (§3.3.3, §5.1): named log
// streams whose entries, written by any system in the sysplex, merge
// into one totally ordered log.
//
// The reproduction keeps the real subsystem's shape:
//
//   - Interim storage is a CF list structure (allocated through
//     whatever cf.Front the sysplex runs — under CFRM duplexing, log
//     writes survive a CF failure like every other structure).
//   - Every entry is stamped by the sysplex timer, so the merged
//     stream has one consistent total order no matter which system
//     wrote which record (§3.1: "timestamps obtained on different
//     systems are mutually consistent").
//   - When interim occupancy crosses the high-offload threshold, the
//     writer drains the oldest entries to DASD offload datasets and
//     trims interim storage down to the low mark. Offload is
//     serialized by a structure lock entry, and log writes execute
//     conditionally on that lock — the serialized-list conditional
//     execution protocol of §3.3.3.
//   - Browse cursors read seamlessly across offloaded and interim
//     data: first the DASD datasets, then the residual CF entries.
//   - If a system dies mid-offload, any peer completes the offload
//     (peer takeover). The offload protocol is idempotent: DASD blocks
//     are written first, the control entry update is the commit point,
//     and interim deletion is a recoverable cleanup.
package logr

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/dasd"
	"sysplex/internal/metrics"
	"sysplex/internal/timer"
	"sysplex/internal/vclock"
)

// Errors returned by the logger.
var (
	ErrNoStream     = errors.New("logr: stream not connected")
	ErrRecordTooBig = errors.New("logr: record exceeds maximum block size")
	ErrBadSpec      = errors.New("logr: bad stream spec")
	// ErrCTLLayout reports a CTL image — in the CF or in the durable
	// shadow — that is not in this build's layout, such as the JSON image
	// earlier builds wrote. It is never treated as torn: an empty frontier
	// over a populated offload chain hides the chain from every browse
	// and lets the next pass overwrite it from block 0.
	ErrCTLLayout = errors.New("logr: CTL image is not in the current layout")
	// ErrBlockLayout reports an offload block not in the packed layout below.
	ErrBlockLayout = errors.New("logr: offload block is not in the current layout")
)

// An offload block: layout byte, big-endian uint16 record count, then each
// envelope behind its big-endian uint16 length; the rest is zero.
const (
	blockLayout = 1
	blockHeader = 1 + 2
	envLength   = 2
	maxEnvelope = dasd.BlockSize - blockHeader - envLength // the largest envelope one block holds
)

// MaxRecord bounds a payload so its envelope (fields, key, int64 stamp, a
// system name of up to 8 bytes, base64 payload) fits one offload block.
const MaxRecord = (maxEnvelope - len(`{"k":"","s":"","t":,"d":""}`) - keyWidth - 8 - 20) / 4 * 3

// list/lock layout inside the stream's CF structure.
const (
	listInterim = 0 // interim storage, keyed by sysplex timestamp
	listControl = 1 // SPEC, CTL and PEND control entries
	lockOffload = 0 // offload / browse serialization lock entry
)

// StreamSpec defines a log stream. The first connector in the sysplex
// allocates the backing structure and records the spec in it; later
// connectors adopt the recorded spec, so every system agrees on the
// thresholds regardless of local defaults.
type StreamSpec struct {
	// Name is the sysplex-wide stream name (e.g. "SYSPLEX.RACF.AUDIT").
	Name string
	// InterimEntries is the CF interim-storage capacity (default 512).
	InterimEntries int
	// HighOffloadPct is the occupancy percentage that triggers an
	// offload (default 70).
	HighOffloadPct int
	// LowOffloadPct is the occupancy percentage an offload drains down
	// to (default 30).
	LowOffloadPct int
	// OffloadBlocks sizes each DASD offload dataset in blocks
	// (default 512). When one fills, the next in the chain is
	// allocated.
	OffloadBlocks int
}

func (s StreamSpec) withDefaults() (StreamSpec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("%w: empty name", ErrBadSpec)
	}
	if s.InterimEntries == 0 {
		s.InterimEntries = 512
	}
	if s.HighOffloadPct == 0 {
		s.HighOffloadPct = 70
	}
	if s.LowOffloadPct == 0 {
		s.LowOffloadPct = 30
	}
	if s.OffloadBlocks == 0 {
		s.OffloadBlocks = 512
	}
	if s.InterimEntries < 8 || s.HighOffloadPct <= s.LowOffloadPct ||
		s.HighOffloadPct > 100 || s.LowOffloadPct < 0 || s.OffloadBlocks < 8 {
		return s, fmt.Errorf("%w: %+v", ErrBadSpec, s)
	}
	return s, nil
}

// Record is one merged-stream log entry as seen by a browse cursor.
type Record struct {
	// Key is the stream-unique, totally ordered position (derived from
	// the sysplex timestamp, so lexical order == time order).
	Key string
	// Sys is the system that wrote the record.
	Sys string
	// Time is the sysplex timestamp assigned at write.
	Time time.Time
	// Data is the payload.
	Data []byte
}

// envelope is the stored form of a record, identical in interim
// storage and in offload dataset blocks.
type envelope struct {
	K string `json:"k"`
	S string `json:"s"`
	T int64  `json:"t"`
	D []byte `json:"d,omitempty"`
}

func (e envelope) record() Record {
	return Record{Key: e.K, Sys: e.S, Time: time.Unix(0, e.T), Data: e.D}
}

// frontier is the content of the stream's CTL control entry: the offload
// frontier and the DASD cursor. Updating it is the commit point of an
// offload. Every log write reads it back, so it is a small fixed-width
// record; what a pass leaves for cleanup lives in the PEND entry.
type frontier struct {
	// HighKey is the highest offloaded key; interim entries at or below
	// it are never browsed from interim (they are either offload
	// leftovers already on DASD, or stranded writes their writer is
	// about to retract). Empty until the first offload commits.
	HighKey string
	// NextDataset / NextBlock locate the next free offload block.
	NextDataset int
	NextBlock   int
	// Offloaded counts records moved to DASD over the stream's life.
	Offloaded int64
}

// The CTL image, in the CF entry and in the durable shadow slots alike:
// layout byte, NextDataset, NextBlock, Offloaded (big-endian uint64
// each), then the frontier key, all zero while there is no frontier.
const (
	frontierLayout = 1
	frontierSize   = 1 + 3*8 + keyWidth
)

func (c frontier) encode() []byte {
	raw := make([]byte, frontierSize)
	raw[0] = frontierLayout
	binary.BigEndian.PutUint64(raw[1:], uint64(c.NextDataset))
	binary.BigEndian.PutUint64(raw[9:], uint64(c.NextBlock))
	binary.BigEndian.PutUint64(raw[17:], uint64(c.Offloaded))
	copy(raw[25:], c.HighKey)
	return raw
}

// decodeFrontier reads a CTL image; bytes past frontierSize (DASD block
// padding) are ignored.
func decodeFrontier(raw []byte) (frontier, error) {
	if len(raw) < frontierSize || raw[0] != frontierLayout {
		return frontier{}, fmt.Errorf("%w: %d bytes starting %q", ErrCTLLayout, len(raw), raw[:min(len(raw), 8)])
	}
	c := frontier{
		NextDataset: int(binary.BigEndian.Uint64(raw[1:])),
		NextBlock:   int(binary.BigEndian.Uint64(raw[9:])),
		Offloaded:   int64(binary.BigEndian.Uint64(raw[17:])),
	}
	if raw[25] != 0 {
		c.HighKey = string(raw[25:frontierSize])
	}
	return c, nil
}

// Config wires a per-system log manager to its substrates.
type Config struct {
	// System is this instance's system name (the CF connector name).
	System string
	// Front is the CF command surface (duplexed under CFRM).
	Front cf.Front
	// Farm and Volume locate DASD offload datasets.
	Farm   *dasd.Farm
	Volume string
	// Timer is the shared sysplex timer stamping every record.
	Timer *timer.Timer
	// Clock defaults to the real clock.
	Clock vclock.Clock
	// Metrics optionally shares a registry across systems (the sysplex
	// façade passes one registry to every member's manager so logr.*
	// metrics aggregate sysplex-wide). Nil allocates a private one.
	Metrics *metrics.Registry
}

// Manager is one system's System Logger instance. All managers in the
// sysplex share stream state through the CF; the manager itself only
// holds connections.
type Manager struct {
	sys    string
	front  cf.Front
	farm   *dasd.Farm
	volume string
	timer  *timer.Timer
	clock  vclock.Clock
	reg    *metrics.Registry

	mu      sync.Mutex
	streams map[string]*Stream
}

// New builds a manager for one system.
func New(cfg Config) (*Manager, error) {
	if cfg.System == "" || cfg.Front == nil || cfg.Farm == nil || cfg.Timer == nil {
		return nil, errors.New("logr: incomplete config")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Manager{
		sys:     cfg.System,
		front:   cfg.Front,
		farm:    cfg.Farm,
		volume:  cfg.Volume,
		timer:   cfg.Timer,
		clock:   cfg.Clock,
		reg:     cfg.Metrics,
		streams: make(map[string]*Stream),
	}, nil
}

// System returns the owning system name.
func (m *Manager) System() string { return m.sys }

// Metrics exposes the logr.* instrumentation: write latency histogram,
// interim occupancy gauge, offload bytes/duration, takeover count.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

func structureName(stream string) string { return "LOGR." + stream }

// Connect attaches this system to a log stream, allocating the backing
// CF structure on first use anywhere in the sysplex. The spec recorded
// by the allocator wins; later connectors adopt it.
func (m *Manager) Connect(ctx context.Context, spec StreamSpec) (*Stream, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if s, ok := m.streams[spec.Name]; ok {
		m.mu.Unlock()
		return s, nil
	}
	m.mu.Unlock()

	sn := structureName(spec.Name)
	ls, err := m.front.ListStructure(sn)
	if err != nil {
		ls, err = m.front.AllocateListStructure(sn, 2, 1, spec.InterimEntries+8)
		if err != nil {
			// Lost an allocation race: attach.
			ls, err = m.front.ListStructure(sn)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ls.Connect(ctx, m.sys, nil); err != nil {
		return nil, err
	}
	// Record or adopt the stream spec. Write-if-absent then re-read:
	// racing connectors converge on whichever spec landed first.
	if _, err := ls.Read(ctx, m.sys, "SPEC", cf.Cond{}); errors.Is(err, cf.ErrEntryNotFound) {
		raw, _ := json.Marshal(spec)
		if err := ls.Write(ctx, m.sys, listControl, "SPEC", "SPEC", raw, cf.FIFO, cf.Cond{}); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	e, err := ls.Read(ctx, m.sys, "SPEC", cf.Cond{})
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(e.Data, &spec); err != nil {
		return nil, fmt.Errorf("logr: corrupt SPEC for %s: %v", spec.Name, err)
	}
	s := &Stream{
		mgr: m, spec: spec, list: ls,
		writes:         m.reg.Counter("logr.write.count"),
		writeLatency:   m.reg.Histogram("logr.write.latency"),
		interimEntries: m.reg.Gauge("logr.interim.entries"),
		stagingAppends: m.reg.Counter("logr.staging.appends"),
	}
	if _, err := s.readFrontier(ctx); err != nil {
		return nil, err // a CTL this build cannot read: refuse the stream
	}
	if m.farm.Durable() {
		if err := s.setupDurable(ctx); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	m.streams[spec.Name] = s
	m.mu.Unlock()
	return s, nil
}

// allocOrAttach resolves a dataset by name, allocating it on the
// manager's volume on first use; lost allocation races fall back to
// the catalog. On a reopened durable farm the catalog already has it.
func (m *Manager) allocOrAttach(name string, blocks int) (*dasd.Dataset, error) {
	if ds, err := m.farm.Dataset(name); err == nil {
		return ds, nil
	}
	ds, err := m.farm.Allocate(m.volume, name, blocks)
	if err != nil {
		if ds2, err2 := m.farm.Dataset(name); err2 == nil {
			return ds2, nil
		}
		return nil, err
	}
	return ds, nil
}

// Stream returns a connected stream by name.
func (m *Manager) Stream(name string) (*Stream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.streams[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoStream, name)
	}
	return s, nil
}

// StreamNames lists this manager's connected streams, sorted.
func (m *Manager) StreamNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.streams))
	for n := range m.streams {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TakeoverFailed completes any offload a failed system left behind, on
// every stream this manager is connected to. The failed system's
// offload lock must already have been cleared (the CF purges a failed
// connector's lock entries; the sysplex calls FailConnector before
// routing the failure here). Returns the number of streams on which
// leftover offload work was completed.
func (m *Manager) TakeoverFailed(ctx context.Context, failedSys string) int {
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.mu.Unlock()
	n := 0
	for _, s := range streams {
		did, err := s.recoverOffload(ctx, failedSys)
		if err != nil {
			continue
		}
		// Also finish the drain the dead writer may have been partway
		// through: if occupancy is still above the high mark, run a
		// normal threshold pass on its behalf.
		if s.list.Len(listInterim) >= s.highMark() {
			if moved, err := s.offloadOnce(ctx, false); err == nil && moved > 0 {
				did = true
			}
		}
		if did {
			n++
			m.reg.Counter("logr.takeover.count").Inc()
		}
	}
	return n
}

// Stream is one system's connection to a sysplex-merged log stream.
type Stream struct {
	mgr  *Manager
	spec StreamSpec
	list cf.List

	// Handles of the per-write metrics, resolved once at Connect: the
	// registry is shared by every member's logger, and a lookup by name
	// takes its mutex.
	writes         *metrics.Counter
	writeLatency   *metrics.Histogram
	interimEntries *metrics.Gauge
	stagingAppends *metrics.Counter

	// Durable-farm artifacts (nil on an in-memory farm). CF interim
	// storage is volatile across a whole-sysplex crash, so on durable
	// farms every acknowledged write is also appended to one of this
	// system's two staging datasets (LOGR.<stream>.STG.<sys>.{0,1}) and
	// group-commit synced before Write returns — the ack then really
	// means durable. Compaction flips between the pair so a live record
	// always has a synced copy in at least one of them. The offload
	// frontier gets a durable shadow too (LOGR.<stream>.CTL, two
	// ping-pong slots versioned by the Offloaded count), written between
	// the DASD data sync and the CF commit point, so cold recovery knows
	// exactly which records live on the offload chain versus in staging.
	stg     [2]*dasd.Dataset
	ctlDS   *dasd.Dataset
	stgMu   sync.Mutex // staging cursor, active index, compaction
	stgAct  int
	stgNext int

	dsMu sync.Mutex // serializes local offload-dataset handle lookups

	// passMu serializes this system's use of the stream's offload lock
	// entry. The CF serializes per connector, not per request: a second
	// SetLock by the same connector succeeds, and conditional commands
	// pass when the holder is the requester itself — real XES semantics,
	// under which the exploiter address space must serialize its own
	// requests (as IXGLOGR does). Passes that hold the lock (offload,
	// browse snapshot, takeover) take it exclusively; per-entry
	// conditional commands (a write attempt, a retract) take it shared,
	// so concurrent writers still interleave freely with each other.
	passMu sync.RWMutex

	// testCrash, when set by tests, simulates the writer dying inside
	// offload at the named stage ("dasd-written" = blocks on DASD, CTL
	// not yet updated; "pending-written" = pending set replaced, CTL not
	// yet updated; "ctl-updated" = CTL updated, interim not yet cleaned).
	// Returning true abandons the offload with the lock held, exactly as
	// a crashed system would.
	testCrash func(stage string) bool

	// testStamped, when set by tests, runs in Write between stamping a
	// record and storing it in interim — the window in which a peer's
	// offload can slide the frontier past the new key.
	testStamped func(key string)
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.spec.Name }

// Spec returns the sysplex-agreed stream definition.
func (s *Stream) Spec() StreamSpec { return s.spec }

// InterimLen returns current interim-storage occupancy.
func (s *Stream) InterimLen() int { return s.list.Len(listInterim) }

func (s *Stream) highMark() int { return s.spec.InterimEntries * s.spec.HighOffloadPct / 100 }
func (s *Stream) lowMark() int  { return s.spec.InterimEntries * s.spec.LowOffloadPct / 100 }

// A stream key is keyWidth decimal digits: those of the largest int64
// nanosecond stamp, and one spare.
const (
	keyZeros = "00000000000000000000"
	keyWidth = len(keyZeros)
)

// keyFor renders a sysplex timestamp as a fixed-width, lexically
// ordered stream key. Timer stamps are strictly increasing across
// systems, so keys are unique and lexical order is time order.
func keyFor(t time.Time) string {
	b := make([]byte, 0, 2*keyWidth)
	b = append(b, keyZeros...)
	b = strconv.AppendInt(b, t.UnixNano(), 10)
	return string(b[len(b)-keyWidth:])
}

// Write appends one record to the merged stream and returns its
// position. The entry lands in CF interim storage conditionally on the
// offload lock; if the write races with an offload that already moved
// the frontier past the new key, the writer re-stamps and retries, so
// a record is never stranded below the offload frontier.
func (s *Stream) Write(ctx context.Context, data []byte) (Record, error) {
	if len(data) > MaxRecord {
		return Record{}, fmt.Errorf("%w (%d > %d)", ErrRecordTooBig, len(data), MaxRecord)
	}
	m := s.mgr
	start := m.clock.Now()
	cond := cf.Cond{Use: true, LockIndex: lockOffload}
	for attempt := 0; ; attempt++ {
		if err := vclock.Check(ctx, m.clock); err != nil {
			return Record{}, err
		}
		s.passMu.RLock()
		stamp := m.timer.Stamp()
		key := keyFor(stamp)
		env, err := json.Marshal(envelope{K: key, S: m.sys, T: stamp.UnixNano(), D: data})
		if err == nil && !fits(nil, env) {
			err = fmt.Errorf("%w: %d-byte envelope, an offload block holds %d", ErrRecordTooBig, len(env), maxEnvelope)
		}
		if err != nil {
			s.passMu.RUnlock()
			return Record{}, err
		}
		if s.testStamped != nil {
			s.testStamped(key)
		}
		err = s.list.Write(ctx, m.sys, listInterim, key, key, env, cf.Keyed, cond)
		s.passMu.RUnlock()
		switch {
		case err == nil:
			// Committed to interim — unless an offload slid the frontier
			// past this key between stamping and writing. Detect and
			// re-drive: if the entry is still present we remove it before
			// anyone can browse-skip it; if it is gone, an offload took
			// it to DASD, which is just as durable. The record is durable
			// from here on, so the remaining bookkeeping runs under a
			// detached context: a caller cancellation must not strand the
			// committed entry half-acknowledged.
			dctx := vclock.Detach(ctx)
			c, cerr := s.readFrontier(dctx)
			if cerr != nil {
				return Record{}, cerr
			}
			if c.HighKey < key {
				return s.finishWrite(dctx, start, key, stamp, data, env)
			}
			if gone := s.retractEntry(dctx, key); gone {
				return s.finishWrite(dctx, start, key, stamp, data, env)
			}
			continue // retracted our own stranded entry: retry with a fresh stamp
		case errors.Is(err, cf.ErrLockHeld):
			// An offload (or a browse snapshot) is in progress; the
			// conditional protocol quiesces mainline writes.
			m.clock.Sleep(50 * time.Microsecond)
		case errors.Is(err, cf.ErrListFull):
			if _, oerr := s.offloadOnce(ctx, true); oerr != nil && !errors.Is(oerr, cf.ErrLockHeld) {
				return Record{}, oerr
			}
			m.clock.Sleep(50 * time.Microsecond)
		default:
			return Record{}, err
		}
	}
}

// finishWrite completes the record's durability (on a durable farm the
// envelope is staged to DASD before the ack), charges metrics, and runs
// the threshold check.
func (s *Stream) finishWrite(ctx context.Context, start time.Time, key string, stamp time.Time, data, env []byte) (Record, error) {
	m := s.mgr
	if s.stg[0] != nil {
		if err := s.appendStaging(env); err != nil {
			return Record{}, err
		}
	}
	s.writes.Inc()
	s.writeLatency.Observe(m.clock.Since(start))
	occ := s.list.Len(listInterim)
	s.interimEntries.Set(int64(occ))
	if occ >= s.highMark() {
		// Threshold-driven offload; ErrLockHeld means a peer is already
		// draining, which serves this writer equally well.
		if _, err := s.offloadOnce(ctx, false); err != nil && !errors.Is(err, cf.ErrLockHeld) {
			return Record{}, err
		}
	}
	return Record{Key: key, Sys: m.sys, Time: stamp, Data: data}, nil
}

// retractEntry removes the caller's just-written entry if it is still
// in interim storage. Returns true if the entry is gone because an
// offload already moved it to DASD (i.e. it is durable and ordered).
// Each attempt runs under the shared pass lock, so a local offload
// pass completes its cleanup before the retract can observe the entry
// — ErrEntryNotFound then reliably means "on DASD", never "mid-pass".
func (s *Stream) retractEntry(ctx context.Context, key string) bool {
	cond := cf.Cond{Use: true, LockIndex: lockOffload}
	for {
		s.passMu.RLock()
		err := s.list.Delete(ctx, s.mgr.sys, key, cond)
		s.passMu.RUnlock()
		switch {
		case err == nil:
			return false // we took it back before any browse could miss it
		case errors.Is(err, cf.ErrEntryNotFound):
			return true // offloaded to DASD
		case errors.Is(err, cf.ErrLockHeld):
			s.mgr.clock.Sleep(50 * time.Microsecond)
		default:
			// Treat any other failure conservatively as "still present":
			// the retry loop re-stamps and the stale entry, being below
			// the frontier, is cleaned by the next offload pass.
			return false
		}
	}
}

// readFrontier reads the CTL entry; a stream no offload has committed on
// has none and reads as the zero frontier.
func (s *Stream) readFrontier(ctx context.Context) (frontier, error) {
	e, err := s.list.Read(ctx, s.mgr.sys, "CTL", cf.Cond{})
	if errors.Is(err, cf.ErrEntryNotFound) {
		return frontier{}, nil
	}
	if err != nil {
		return frontier{}, err
	}
	c, err := decodeFrontier(e.Data)
	if err != nil {
		return frontier{}, fmt.Errorf("logr: CTL of %s: %w", s.spec.Name, err)
	}
	return c, nil
}

func (s *Stream) writeFrontier(ctx context.Context, c frontier) error {
	return s.list.Write(ctx, s.mgr.sys, listControl, "CTL", "CTL", c.encode(), cf.FIFO, cf.Cond{})
}

// readPending returns the PEND control entry as a set: the IDs of the
// interim entries the last offload pass moved to DASD and may not have
// deleted yet. A pass writes it before it commits in CTL, so the set can
// be one pass ahead of the frontier; its IDs are then all above the
// frontier, where nothing is ever reaped.
func (s *Stream) readPending(ctx context.Context) (map[string]bool, error) {
	e, err := s.list.Read(ctx, s.mgr.sys, "PEND", cf.Cond{})
	if errors.Is(err, cf.ErrEntryNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ids := strings.Split(string(e.Data), "\n")
	pending := make(map[string]bool, len(ids))
	for _, id := range ids {
		pending[id] = true
	}
	return pending, nil
}

// writePending records ids (interim entry IDs are stream keys, so a
// newline separates them safely).
func (s *Stream) writePending(ctx context.Context, ids []string) error {
	return s.list.Write(ctx, s.mgr.sys, listControl, "PEND", "PEND", []byte(strings.Join(ids, "\n")), cf.FIFO, cf.Cond{})
}

// setupDurable attaches the stream's durable artifacts on a file-backed
// farm — this system's staging pair and the shared durable CTL shadow —
// then runs cold recovery in case the CF came up empty.
func (s *Stream) setupDurable(ctx context.Context) error {
	m := s.mgr
	for i := 0; i < 2; i++ {
		ds, err := m.allocOrAttach(fmt.Sprintf("LOGR.%s.STG.%s.%d", s.spec.Name, m.sys, i), s.spec.InterimEntries+16)
		if err != nil {
			return err
		}
		s.stg[i] = ds
	}
	ctlDS, err := m.allocOrAttach(fmt.Sprintf("LOGR.%s.CTL", s.spec.Name), 2)
	if err != nil {
		return err
	}
	s.ctlDS = ctlDS
	s.scanStaging()
	return s.recoverCold(ctx)
}

// scanStaging picks the active staging dataset — the one holding the
// newest decodable record — and positions the append cursor past its
// last occupied block. Torn blocks count as occupied (a power cut hit
// them mid-flush) but contribute no key.
func (s *Stream) scanStaging() {
	m := s.mgr
	s.stgMu.Lock()
	defer s.stgMu.Unlock()
	var maxKey [2]string
	last := [2]int{-1, -1}
	for i, ds := range s.stg {
		for b := 0; b < ds.Blocks(); b++ {
			raw, err := ds.Read(m.sys, b)
			if err != nil {
				last[i] = b
				continue
			}
			if len(raw) == 0 || raw[0] == 0 {
				continue
			}
			last[i] = b
			if env, derr := decodeEnvelope(raw); derr == nil && env.K > maxKey[i] {
				maxKey[i] = env.K
			}
		}
	}
	s.stgAct = 0
	if maxKey[1] > maxKey[0] {
		s.stgAct = 1
	}
	s.stgNext = last[s.stgAct] + 1
}

// appendStaging makes one acknowledged record durable: append its
// envelope to the active staging dataset and group-commit. Runs after
// the CF interim write succeeds and before the ack returns to the
// caller.
func (s *Stream) appendStaging(env []byte) error {
	m := s.mgr
	s.stgMu.Lock()
	if s.stgNext >= s.stg[s.stgAct].Blocks() {
		if err := s.compactStagingLocked(); err != nil {
			s.stgMu.Unlock()
			return err
		}
	}
	ds, blk := s.stg[s.stgAct], s.stgNext
	s.stgNext++
	s.stgMu.Unlock()
	if err := ds.Write(m.sys, blk, env); err != nil {
		return err
	}
	s.stagingAppends.Inc()
	// Concurrent appenders coalesce in the file backend's group commit:
	// one leader fsync covers the whole batch.
	return ds.Sync()
}

// compactStagingLocked (stgMu held) flips staging to the other dataset
// of the pair: survivors — records above the durable frontier, union of
// both datasets, deduped by key — are rewritten into the inactive
// dataset and synced BEFORE the old active is scrubbed, so at every
// instant every live record has at least one durable copy. A crash
// anywhere in between leaves extra stale copies, which recovery and the
// next compaction dedupe away.
func (s *Stream) compactStagingLocked() error {
	m := s.mgr
	c, err := s.readDurableFrontier()
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var keep []envelope
	for _, ds := range s.stg {
		for b := 0; b < ds.Blocks(); b++ {
			raw, rerr := ds.Read(m.sys, b)
			if rerr != nil {
				continue
			}
			env, derr := decodeEnvelope(raw)
			if derr != nil {
				continue
			}
			if c.HighKey != "" && env.K <= c.HighKey {
				continue // on the synced offload chain already
			}
			if seen[env.K] {
				continue
			}
			seen[env.K] = true
			keep = append(keep, env)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].K < keep[j].K })
	dst := s.stg[1-s.stgAct]
	if len(keep) >= dst.Blocks() {
		return fmt.Errorf("logr: %s staging overflow: %d live staged records", s.spec.Name, len(keep))
	}
	for b := 0; b < dst.Blocks(); b++ {
		var data []byte
		if b < len(keep) {
			if data, err = json.Marshal(keep[b]); err != nil {
				return err
			}
		}
		if err := dst.Write(m.sys, b, data); err != nil {
			return err
		}
	}
	if err := dst.Sync(); err != nil {
		return err
	}
	src := s.stg[s.stgAct]
	for b := 0; b < src.Blocks(); b++ {
		if err := src.Write(m.sys, b, nil); err != nil {
			return err
		}
	}
	if err := src.Sync(); err != nil {
		return err
	}
	s.stgAct = 1 - s.stgAct
	s.stgNext = len(keep)
	m.reg.Counter("logr.staging.compactions").Inc()
	return nil
}

// readDurableFrontier returns the newest durable CTL slot. A torn slot or
// one never written is skipped — the other holds the last good frontier.
func (s *Stream) readDurableFrontier() (frontier, error) {
	var best frontier
	for b := 0; b < 2; b++ {
		raw, err := s.ctlDS.Read(s.mgr.sys, b)
		if err != nil || len(raw) == 0 || raw[0] == 0 {
			continue
		}
		c, err := decodeFrontier(raw)
		if err != nil {
			return frontier{}, fmt.Errorf("logr: durable CTL slot %d of %s: %w", b, s.spec.Name, err)
		}
		if c.Offloaded > best.Offloaded {
			best = c
		}
	}
	return best, nil
}

// writeDurableFrontier persists the offload frontier before the CF
// commit point, alternating between two slots versioned by the monotonic
// Offloaded count, so a torn CTL write can never destroy the last good
// frontier.
func (s *Stream) writeDurableFrontier(c frontier) error {
	if err := s.ctlDS.Write(s.mgr.sys, int(c.Offloaded%2), c.encode()); err != nil {
		return err
	}
	return s.ctlDS.Sync()
}

// recoverCold rebuilds CF stream state after a whole-sysplex cold
// start: if the CF has no CTL for this stream but durable artifacts
// exist, seed the CF CTL from the durable shadow and re-insert every
// staged record above the frontier into interim storage — including
// records staged by peers that may never restart. Records at or below
// the frontier already live on the synced offload chain. Runs under
// the offload lock and is idempotent, so racing connectors converge.
func (s *Stream) recoverCold(ctx context.Context) error {
	m := s.mgr
	s.passMu.Lock()
	defer s.passMu.Unlock()
	if err := s.list.SetLock(ctx, lockOffload, m.sys); err != nil {
		return err
	}
	defer func() { _ = s.list.ReleaseLock(vclock.Detach(ctx), lockOffload, m.sys) }()
	if c, err := s.readFrontier(ctx); err != nil {
		return err
	} else if c != (frontier{}) {
		return nil // CF state survived, or a peer already recovered
	}
	c, err := s.readDurableFrontier()
	if err != nil {
		return err
	}
	seeded := c != (frontier{})
	if seeded {
		if err := s.writeFrontier(ctx, c); err != nil {
			return err
		}
	}
	seen := make(map[string]bool)
	for _, e := range s.list.Entries(listInterim) {
		seen[e.Key] = true
	}
	var envs []envelope
	for _, name := range m.farm.Datasets("LOGR." + s.spec.Name + ".STG.") {
		ds, derr := m.farm.Dataset(name)
		if derr != nil {
			continue
		}
		for b := 0; b < ds.Blocks(); b++ {
			raw, rerr := ds.Read(m.sys, b)
			if rerr != nil {
				continue // torn: mid-append at the power cut, never acknowledged
			}
			env, derr := decodeEnvelope(raw)
			if derr != nil {
				continue // empty block or partial flush
			}
			if c.HighKey != "" && env.K <= c.HighKey {
				continue
			}
			if seen[env.K] {
				continue
			}
			seen[env.K] = true
			envs = append(envs, env)
		}
	}
	sort.Slice(envs, func(i, j int) bool { return envs[i].K < envs[j].K })
	for _, env := range envs {
		raw, merr := json.Marshal(env)
		if merr != nil {
			return merr
		}
		if err := s.list.Write(ctx, m.sys, listInterim, env.K, env.K, raw, cf.Keyed, cf.Cond{}); err != nil {
			return err
		}
	}
	if seeded || len(envs) > 0 {
		m.reg.Counter("logr.recover.streams").Inc()
	}
	m.reg.Counter("logr.recover.records").Add(int64(len(envs)))
	return nil
}

// offloadDataset returns (allocating on first use) dataset n of the
// stream's offload chain. Allocation races are impossible in the
// normal path — only the offload-lock holder extends the chain — but
// the lookup still falls back to the catalog for lost races.
func (s *Stream) offloadDataset(n int) (*dasd.Dataset, error) {
	s.dsMu.Lock()
	defer s.dsMu.Unlock()
	name := fmt.Sprintf("LOGR.%s.OFF%04d", s.spec.Name, n)
	ds, err := s.mgr.farm.Dataset(name)
	if err == nil {
		return ds, nil
	}
	ds, err = s.mgr.farm.Allocate(s.mgr.volume, name, s.spec.OffloadBlocks)
	if err != nil {
		if ds2, err2 := s.mgr.farm.Dataset(name); err2 == nil {
			return ds2, nil
		}
		return nil, err
	}
	return ds, nil
}

// Offload forces an offload pass down to the low mark, regardless of
// occupancy. Returns the number of records moved.
func (s *Stream) Offload(ctx context.Context) (int, error) { return s.offloadOnce(ctx, true) }

// offloadOnce drains interim storage to DASD under the offload lock.
// The protocol is crash-idempotent in three phases:
//
//  1. write the drained records to DASD at the CTL cursor — blocks
//     beyond the cursor are garbage until committed, so a crashed
//     half-write is simply overwritten by the next attempt;
//  2. replace the pending set with this pass's entry IDs, then update
//     CTL (frontier + cursor) — the commit point;
//  3. delete the offloaded entries from interim — leftovers below the
//     frontier are invisible to browse and reaped by the next pass.
//
// force=false is the mainline threshold check (no-op below the high
// mark, and skipped outright while another local goroutine is mid-
// pass); force=true drains regardless (list-full backpressure, tests).
func (s *Stream) offloadOnce(ctx context.Context, force bool) (int, error) {
	if force {
		s.passMu.Lock()
	} else if !s.passMu.TryLock() {
		return 0, nil // a local pass is already draining on our behalf
	}
	defer s.passMu.Unlock()
	m := s.mgr
	if err := s.list.SetLock(ctx, lockOffload, m.sys); err != nil {
		return 0, err
	}
	crashed := false
	defer func() {
		if !crashed {
			// If the release fails the serialized lock is retained;
			// recovery clears it — FailConnector purges a dead system's
			// locks, and a rebuild from a broken CF drops the stale
			// holder from the copied image. The pass itself succeeded.
			_ = s.list.ReleaseLock(vclock.Detach(ctx), lockOffload, m.sys)
		}
	}()
	start := m.clock.Now()
	c, err := s.readFrontier(ctx)
	if err != nil {
		return 0, err
	}
	entries := s.list.Entries(listInterim) // keyed order == time order
	// Phase 0 (recovery): reap leftovers a crashed predecessor moved to
	// DASD but did not delete — exactly the pending set, below the
	// frontier. Other sub-frontier entries are stranded fresh writes
	// (stamped before, written after, a completed offload); their writer
	// is mid-retract and they must be neither browsed, re-offloaded, nor
	// deleted here.
	pending, err := s.readPending(ctx)
	if err != nil {
		return 0, err
	}
	var reap []string
	live := entries[:0]
	for _, e := range entries {
		if c.HighKey != "" && e.Key <= c.HighKey {
			if pending[e.ID] {
				reap = append(reap, e.ID)
			}
			continue
		}
		live = append(live, e)
	}
	if err := s.deleteInterim(ctx, reap); err != nil {
		return 0, err
	}
	n := len(live) - s.lowMark()
	if !force && len(live) < s.highMark() {
		return 0, nil
	}
	if n <= 0 {
		return 0, nil
	}
	toMove := live[:n]
	// Phase 1: DASD writes at the uncommitted cursor, as many envelopes to a
	// block as fit, from a fresh block: no committed block is rewritten.
	cur := c
	var bytes int64
	var lastDS *dasd.Dataset
	blk := make([]byte, 0, dasd.BlockSize)
	for i, e := range toMove {
		blk = packEnvelope(blk, e.Data)
		bytes += int64(len(e.Data))
		if i+1 < len(toMove) && fits(blk, toMove[i+1].Data) {
			continue
		}
		if cur.NextBlock >= s.spec.OffloadBlocks {
			cur.NextDataset++
			cur.NextBlock = 0
		}
		ds, err := s.offloadDataset(cur.NextDataset)
		if err != nil {
			return 0, err
		}
		if err := ds.Write(m.sys, cur.NextBlock, blk); err != nil {
			return 0, err
		}
		lastDS = ds
		cur.NextBlock++
		blk = blk[:0]
	}
	if s.ctlDS != nil && lastDS != nil {
		// Durable farm: the offload chain must be on stable storage
		// before any frontier — durable or CF — names its blocks.
		if err := lastDS.Sync(); err != nil {
			return 0, err
		}
	}
	if s.testCrash != nil && s.testCrash("dasd-written") {
		crashed = true
		return 0, errors.New("logr: simulated crash before CTL update")
	}
	// Phase 2: commit point.
	cur.HighKey = toMove[len(toMove)-1].Key
	cur.Offloaded = c.Offloaded + int64(n)
	moved := make([]string, n)
	for i, e := range toMove {
		moved[i] = e.ID
	}
	if s.ctlDS != nil {
		// The durable frontier shadow leads the CF commit: after a
		// whole-sysplex crash anywhere past this write, recovery reads
		// these records from the (already synced) offload chain instead
		// of staging. If the crash lands before the CF CTL write below,
		// a live peer redoes the pass from the same cursor (unpackBlock
		// says why a larger redo still leaves readers exact).
		if err := s.writeDurableFrontier(cur); err != nil {
			return 0, err
		}
		if s.testCrash != nil && s.testCrash("durable-ctl") {
			crashed = true
			return 0, errors.New("logr: simulated crash after durable CTL, before CF CTL")
		}
	}
	// The pending set goes in before the commit. Phase 0 and takeover
	// reap a pending ID only at or below the committed frontier, and
	// these are all above it until CTL lands: a crash in between reaps
	// nothing, and the pass that redoes the work overwrites the set.
	if err := s.writePending(ctx, moved); err != nil {
		return 0, err
	}
	if s.testCrash != nil && s.testCrash("pending-written") {
		crashed = true
		return 0, errors.New("logr: simulated crash after pending set, before CF CTL")
	}
	if err := s.writeFrontier(ctx, cur); err != nil {
		return 0, err
	}
	if s.testCrash != nil && s.testCrash("ctl-updated") {
		crashed = true
		return 0, errors.New("logr: simulated crash before interim cleanup")
	}
	// Phase 3: cleanup — one CF batch instead of a delete per record.
	if err := s.deleteInterim(ctx, moved); err != nil {
		return 0, err
	}
	m.reg.Counter("logr.offload.count").Inc()
	m.reg.Counter("logr.offload.records").Add(int64(n))
	m.reg.Counter("logr.offload.bytes").Add(bytes)
	m.reg.Histogram("logr.offload.duration").Observe(m.clock.Since(start))
	s.interimEntries.Set(int64(s.list.Len(listInterim)))
	return n, nil
}

// deleteInterim removes the identified interim entries as one CF batch
// per chunk instead of a command per record — offload cleanup is the
// heaviest delete traffic the stream generates, and batching it turns
// N link crossings into one on a transport CF. Already-deleted entries
// are fine: both the phase-0 reap and phase-3 cleanup are idempotent
// retries of work a crashed predecessor may have half-finished.
func (s *Stream) deleteInterim(ctx context.Context, ids []string) error {
	m := s.mgr
	for start := 0; start < len(ids); start += cf.MaxBatchOps {
		end := start + cf.MaxBatchOps
		if end > len(ids) {
			end = len(ids)
		}
		chunk := ids[start:end]
		cmds := make([]cf.Cmd, len(chunk))
		for i, id := range chunk {
			cmds[i] = cf.Cmd{Kind: cf.CmdListDelete, Conn: m.sys, Name: id}
		}
		reply, err := s.list.Batch(ctx, cmds)
		if err != nil {
			return err
		}
		for _, serr := range reply.Errs {
			if serr != nil && !errors.Is(serr, cf.ErrEntryNotFound) {
				return serr
			}
		}
	}
	return nil
}

// recoverOffload is the peer-takeover path: finish whatever a failed
// writer left behind — pending offload cleanup, plus any sub-frontier
// entries the dead system stranded (unacknowledged writes nobody will
// ever retract). Live systems' strandeds are left for their writers.
// It reports whether leftover work was found.
func (s *Stream) recoverOffload(ctx context.Context, failedSys string) (bool, error) {
	s.passMu.Lock()
	defer s.passMu.Unlock()
	m := s.mgr
	if err := s.list.SetLock(ctx, lockOffload, m.sys); err != nil {
		return false, err
	}
	// Retained on failure; FailConnector or a rebuild from the broken
	// CF clears the stale holder.
	defer func() { _ = s.list.ReleaseLock(vclock.Detach(ctx), lockOffload, m.sys) }()
	c, err := s.readFrontier(ctx)
	if err != nil {
		return false, err
	}
	pending, err := s.readPending(ctx)
	if err != nil {
		return false, err
	}
	did := false
	for _, e := range s.list.Entries(listInterim) {
		if c.HighKey == "" || e.Key > c.HighKey {
			continue
		}
		reap := pending[e.ID]
		if !reap {
			env, err := decodeEnvelope(e.Data)
			reap = err == nil && env.S == failedSys
		}
		if reap {
			if err := s.list.Delete(ctx, m.sys, e.ID, cf.Cond{}); err != nil && !errors.Is(err, cf.ErrEntryNotFound) {
				return did, err
			}
			did = true
		}
	}
	return did, nil
}

// Browse returns a cursor over every record of the stream in timestamp
// order, reading seamlessly across offloaded and interim data. The
// interim snapshot and offload frontier are captured atomically under
// the offload lock; DASD blocks below the captured cursor are
// immutable, so they are read lock-free afterwards.
func (s *Stream) Browse(ctx context.Context) (*Cursor, error) {
	m := s.mgr
	var c frontier
	var interim []cf.ListEntry
	for {
		if err := vclock.Check(ctx, m.clock); err != nil {
			return nil, err
		}
		s.passMu.Lock()
		if err := s.list.SetLock(ctx, lockOffload, m.sys); err != nil {
			s.passMu.Unlock()
			if errors.Is(err, cf.ErrLockHeld) {
				m.clock.Sleep(50 * time.Microsecond)
				continue
			}
			return nil, err
		}
		var err error
		c, err = s.readFrontier(ctx)
		if err == nil {
			interim = s.list.Entries(listInterim)
		}
		// Retained on failure; FailConnector or a rebuild from the
		// broken CF clears the stale holder.
		_ = s.list.ReleaseLock(vclock.Detach(ctx), lockOffload, m.sys)
		s.passMu.Unlock()
		if err != nil {
			return nil, err
		}
		break
	}
	recs := make([]Record, 0, int(c.Offloaded)+len(interim))
	// Offloaded portion: datasets 0..NextDataset, blocks below cursor.
	for d := 0; d <= c.NextDataset; d++ {
		hi := s.spec.OffloadBlocks
		if d == c.NextDataset {
			hi = c.NextBlock
		}
		if hi == 0 {
			continue
		}
		ds, err := s.offloadDataset(d)
		if err != nil {
			return nil, err
		}
		for b := 0; b < hi; b++ {
			raw, err := ds.Read(m.sys, b)
			if err != nil {
				return nil, err
			}
			if recs, err = unpackBlock(recs, raw, c.HighKey); err != nil {
				return nil, fmt.Errorf("logr: %s offload ds %d blk %d: %w", s.spec.Name, d, b, err)
			}
		}
	}
	// Interim portion: everything above the frontier. Entries at or
	// below it are either offload leftovers already represented on DASD
	// or stranded unacknowledged writes awaiting retraction — never
	// browsed either way.
	for _, e := range interim {
		if c.HighKey != "" && e.Key <= c.HighKey {
			continue
		}
		env, err := decodeEnvelope(e.Data)
		if err != nil {
			return nil, fmt.Errorf("logr: %s interim %s: %v", s.spec.Name, e.ID, err)
		}
		recs = append(recs, env.record())
	}
	m.reg.Counter("logr.browse.count").Inc()
	return &Cursor{recs: recs}, nil
}

// fits reports whether env fits offload block image blk (empty: a new one).
func fits(blk, env []byte) bool {
	return max(len(blk), blockHeader)+envLength+len(env) <= dasd.BlockSize
}

// packEnvelope appends env to offload block image blk; an empty blk starts one.
func packEnvelope(blk, env []byte) []byte {
	if len(blk) == 0 {
		blk = append(blk, blockLayout, 0, 0)
	}
	binary.BigEndian.PutUint16(blk[1:], binary.BigEndian.Uint16(blk[1:])+1)
	blk = binary.BigEndian.AppendUint16(blk, uint16(len(env)))
	return append(blk, env...)
}

// unpackBlock appends one offload block's records to recs, taking only
// those above recs' last key and at or below highKey: a redo of a crashed
// pass may pack records that a durable frontier from before the crash does
// not name, and after a cold restart the next pass writes them again.
func unpackBlock(recs []Record, raw []byte, highKey string) ([]Record, error) {
	if len(raw) < blockHeader || raw[0] != blockLayout {
		return nil, fmt.Errorf("%w: starts %q", ErrBlockLayout, raw[:min(len(raw), 8)])
	}
	n, p := int(binary.BigEndian.Uint16(raw[1:])), raw[blockHeader:]
	for i := 1; i <= n; i++ {
		if len(p) < envLength || len(p) < envLength+int(binary.BigEndian.Uint16(p)) {
			return nil, fmt.Errorf("%w: record %d of %d overruns the block", ErrBlockLayout, i, n)
		}
		l := envLength + int(binary.BigEndian.Uint16(p))
		env, err := decodeEnvelope(p[envLength:l])
		if err != nil {
			return nil, err
		}
		if env.K <= highKey && (len(recs) == 0 || env.K > recs[len(recs)-1].Key) {
			recs = append(recs, env.record())
		}
		p = p[l:]
	}
	return recs, nil
}

func decodeEnvelope(raw []byte) (envelope, error) {
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end-- // DASD blocks are zero-padded
	}
	var env envelope
	if err := json.Unmarshal(raw[:end], &env); err != nil {
		return envelope{}, err
	}
	return env, nil
}

// Stats is a point-in-time stream summary.
type Stats struct {
	Interim   int   // current interim occupancy
	Offloaded int64 // records moved to DASD over the stream's life
}

// Stats snapshots the stream.
func (s *Stream) Stats(ctx context.Context) (Stats, error) {
	c, err := s.readFrontier(ctx)
	if err != nil {
		return Stats{}, err
	}
	return Stats{Interim: s.list.Len(listInterim), Offloaded: c.Offloaded}, nil
}

// Cursor iterates a browse snapshot in timestamp order.
type Cursor struct {
	recs []Record
	pos  int
}

// Next returns the next record; ok is false at end of stream.
func (c *Cursor) Next() (Record, bool) {
	if c.pos >= len(c.recs) {
		return Record{}, false
	}
	r := c.recs[c.pos]
	c.pos++
	return r, true
}

// Len returns the number of records in the snapshot.
func (c *Cursor) Len() int { return len(c.recs) }

// Records returns the remaining records without advancing the cursor.
func (c *Cursor) Records() []Record {
	return append([]Record(nil), c.recs[c.pos:]...)
}
