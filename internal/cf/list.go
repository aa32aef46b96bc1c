package cf

import (
	"context"

	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sysplex/internal/metrics"
)

// listShards is the number of entry-map shards; a power of two so the
// shard index is a mask of the entry-ID hash.
const listShards = 64

// Order controls where a list entry is queued (§3.3.3: LIFO/FIFO order
// or collating sequence by key under program control).
type Order int

// Queueing disciplines.
const (
	FIFO Order = iota
	LIFO
	Keyed
)

// ListEntry is one entry in a list structure. Entries are created when
// first written and may carry a data block and an adjunct area — the
// architecture's small control area beside the data element, written
// with SetAdjunct and returned by reads.
type ListEntry struct {
	ID      string
	Key     string
	Data    []byte
	Adjunct string
	List    int
}

// clone returns a defensive copy.
func (e ListEntry) clone() ListEntry {
	e.Data = append([]byte(nil), e.Data...)
	return e
}

// Cond expresses the serialized-list conditional execution protocol: a
// mainline command executes only if the given lock entry is not held
// (or is held by the requester). Recovery sets the lock to quiesce
// mainline activity without every request having to acquire it.
type Cond struct {
	// Use enables the condition.
	Use bool
	// LockIndex selects the lock entry within the structure.
	LockIndex int
}

// ListStructure is a CF list-model structure: a program-specified
// number of list headers, dynamically created entries, optional lock
// entries for conditional execution, and list-transition monitoring.
//
// Concurrency: every command holds mu.RLock; structure-wide operations
// (Connect, connector purge, clone) hold mu.Lock, which excludes all
// commands and may then touch any state directly. Under the read lock,
// state is striped: each list header has its own mutex guarding order
// and membership, the entry map is sharded by ID hash, and each
// conditional lock entry carries an RWMutex. Entry *fields* are owned
// by the ID's shard; list membership and order by the list's mutex.
// Lock order: cond entry → list headers (ascending) → entry shard →
// monMu. Commands that discover the target list through the entry
// (Delete, Move) use an optimistic retry loop to respect that order.
// Conditional commands hold the lock entry's RLock for their duration,
// so SetLock (write lock) still quiesces in-flight mainline commands
// exactly as the serialized-list protocol requires.
type ListStructure struct {
	facility   *Facility
	name       string
	maxEntries int // immutable

	mConnect cmdMetrics
	mSetLock cmdMetrics
	mRelLock cmdMetrics
	mWrite   cmdMetrics
	mRead    cmdMetrics
	mReadFst cmdMetrics
	mPop     cmdMetrics
	mDelete  cmdMetrics
	mMove    cmdMetrics
	mAdjunct cmdMetrics
	mMonitor cmdMetrics
	cTrans   *metrics.Counter

	mu     sync.RWMutex // lintlock: level=10
	lists  []listHead
	shards [listShards]entryShard
	locks  []condLock
	total  atomic.Int64 // entries across all shards, <= maxEntries
	conns  map[string]*listConn

	monMu    sync.Mutex             // lintlock: level=50
	monitors map[int]map[string]int // list -> conn -> vector index
}

type listHead struct {
	mu      sync.Mutex // lintlock: level=30 ordered — Move locks both heads in index order
	entries []*ListEntry
}

type entryShard struct {
	mu sync.Mutex // lintlock: level=40
	m  map[string]*ListEntry
}

// condLock is one serialized-list lock entry. Conditional mainline
// commands hold rw.RLock for their duration; SetLock/ReleaseLock take
// rw.Lock, so acquiring the lock waits out in-flight conditional work.
type condLock struct {
	rw     sync.RWMutex // lintlock: level=20
	holder string       // connector or ""
}

type listConn struct {
	vector *BitVector // list-transition notification vector
}

// listShardIdx hashes an entry ID to its shard (inline FNV-1a).
func listShardIdx(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h & (listShards - 1))
}

func (s *ListStructure) shardFor(id string) *entryShard {
	return &s.shards[listShardIdx(id)]
}

// AllocateListStructure allocates a list structure with nLists headers,
// nLocks lock entries, and an entry capacity.
func (f *Facility) AllocateListStructure(name string, nLists, nLocks, maxEntries int) (List, error) {
	if nLists <= 0 || nLocks < 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("%w: list structure shape", ErrBadArgument)
	}
	s := newListStructure(f, name, nLists, nLocks, maxEntries)
	if err := f.allocate(name, s); err != nil {
		return nil, err
	}
	return s, nil
}

func newListStructure(f *Facility, name string, nLists, nLocks, maxEntries int) *ListStructure {
	s := &ListStructure{
		facility:   f,
		name:       name,
		maxEntries: maxEntries,
		lists:      make([]listHead, nLists),
		locks:      make([]condLock, nLocks),
		conns:      make(map[string]*listConn),
		monitors:   make(map[int]map[string]int),
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*ListEntry)
	}
	s.mConnect = f.cmdMetrics("list.connect")
	s.mSetLock = f.cmdMetrics("list.setlock")
	s.mRelLock = f.cmdMetrics("list.releaselock")
	s.mWrite = f.cmdMetrics("list.write")
	s.mRead = f.cmdMetrics("list.read")
	s.mReadFst = f.cmdMetrics("list.readfirst")
	s.mPop = f.cmdMetrics("list.pop")
	s.mDelete = f.cmdMetrics("list.delete")
	s.mMove = f.cmdMetrics("list.move")
	s.mAdjunct = f.cmdMetrics("list.adjunct")
	s.mMonitor = f.cmdMetrics("list.monitor")
	s.cTrans = f.reg.Counter("cf.list.transition")
	return s
}

// ListStructure returns the named list structure.
func (f *Facility) ListStructure(name string) (List, error) {
	s, err := f.lookup(name, ListModel)
	if err != nil {
		return nil, err
	}
	return s.(*ListStructure), nil
}

func (s *ListStructure) model() Model   { return ListModel }
func (s *ListStructure) fac() *Facility { return s.facility }

// cloneInto re-allocates the list structure in dst with a deep copy of
// every list, entry, lock entry, and monitor registration. Notification
// vectors are shared with the source connectors.
func (s *ListStructure) cloneInto(dst *Facility) (structure, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := newListStructure(dst, s.name, len(s.lists), len(s.locks), s.maxEntries)
	// Serialized-lock holders survive only a healthy-source copy (duplex
	// establishment, planned rebuild), where the holding pass is live and
	// will release through the front. When the source facility is broken,
	// every in-flight pass has already aborted with ErrCFDown — and its
	// ReleaseLock failed with the structure — so any recorded holder is
	// stale. Carrying it into the rebuilt image would wedge conditional
	// mainline commands forever: no takeover clears CF-failure locks
	// (takeover handles *system* failure).
	if !s.facility.Failed() {
		for i := range s.locks {
			n.locks[i].holder = s.locks[i].holder
		}
	}
	for c, lc := range s.conns {
		n.conns[c] = &listConn{vector: lc.vector}
	}
	for i := range s.lists {
		l := s.lists[i].entries
		nl := make([]*ListEntry, len(l))
		for j, e := range l {
			ne := e.clone()
			nl[j] = &ne
			n.shardFor(ne.ID).m[ne.ID] = &ne
			n.total.Add(1)
		}
		n.lists[i].entries = nl
	}
	for l, m := range s.monitors {
		nm := make(map[string]int, len(m))
		for c, idx := range m {
			nm[c] = idx
		}
		n.monitors[l] = nm
	}
	if err := dst.allocate(s.name, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Name returns the structure name.
func (s *ListStructure) Name() string { return s.name }

// Lists returns the number of list headers (fixed at allocation).
func (s *ListStructure) Lists() int { return len(s.lists) }

// Connect attaches a connector with its notification vector (may be
// nil if the connector never monitors lists).
func (s *ListStructure) Connect(ctx context.Context, conn string, vector *BitVector) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mConnect, start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[conn] = &listConn{vector: vector}
	return nil
}

func (s *ListStructure) disconnect(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeConnLocked(conn)
}

func (s *ListStructure) failConnector(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purgeConnLocked(conn)
	// Entries written by the connector remain: list structures hold
	// shared state (e.g. generic resource registrations) that peers
	// clean up with their own protocol.
}

// purgeConnLocked runs under mu.Lock, which excludes every command, so
// monitors and lock holders are touched without their inner locks.
func (s *ListStructure) purgeConnLocked(conn string) {
	delete(s.conns, conn)
	for l, m := range s.monitors {
		delete(m, conn)
		if len(m) == 0 {
			delete(s.monitors, l)
		}
	}
	for i := range s.locks {
		if s.locks[i].holder == conn {
			s.locks[i].holder = ""
		}
	}
}

// SetLock acquires lock entry idx for conn; it fails with ErrLockHeld
// if another connector holds it. Taking the entry's write lock waits
// out every in-flight conditional command, preserving the quiesce
// semantics of the serialized-list protocol.
func (s *ListStructure) SetLock(ctx context.Context, idx int, conn string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mSetLock, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.connCheckRLocked(conn); err != nil {
		return err
	}
	if idx < 0 || idx >= len(s.locks) {
		return fmt.Errorf("%w: lock entry %d", ErrBadArgument, idx)
	}
	l := &s.locks[idx]
	l.rw.Lock()
	defer l.rw.Unlock()
	if l.holder != "" && l.holder != conn {
		return fmt.Errorf("%w: by %s", ErrLockHeld, l.holder)
	}
	l.holder = conn
	return nil
}

// ReleaseLock releases lock entry idx if held by conn.
func (s *ListStructure) ReleaseLock(ctx context.Context, idx int, conn string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mRelLock, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx < 0 || idx >= len(s.locks) {
		return fmt.Errorf("%w: lock entry %d", ErrBadArgument, idx)
	}
	l := &s.locks[idx]
	l.rw.Lock()
	defer l.rw.Unlock()
	if l.holder == conn {
		l.holder = ""
	}
	return nil
}

// LockHolder returns the holder of lock entry idx ("" if free).
func (s *ListStructure) LockHolder(idx int) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx < 0 || idx >= len(s.locks) {
		return ""
	}
	l := &s.locks[idx]
	l.rw.RLock()
	defer l.rw.RUnlock()
	return l.holder
}

// Write creates or updates entry id on the given list. Creation onto an
// empty list fires the list-transition signal to registered monitors.
func (s *ListStructure) Write(ctx context.Context, conn string, list int, id, key string, data []byte, order Order, cond Cond) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mWrite, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.preambleRLocked(conn, list); err != nil {
		return err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return err
	}
	defer unlockCond()
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[id]; ok {
		e.Data = append([]byte(nil), data...)
		e.Key = key
		return nil
	}
	if s.total.Add(1) > int64(s.maxEntries) {
		s.total.Add(-1)
		return fmt.Errorf("%w (%d)", ErrListFull, s.maxEntries)
	}
	e := &ListEntry{ID: id, Key: key, Data: append([]byte(nil), data...), List: list}
	wasEmpty := len(lh.entries) == 0
	insertInto(lh, e, list, order)
	sh.m[id] = e
	if wasEmpty {
		s.signalTransition(list)
	}
	return nil
}

// Read returns a copy of entry id.
func (s *ListStructure) Read(ctx context.Context, conn, id string, cond Cond) (ListEntry, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ListEntry{}, err
	}
	defer s.facility.charge(s.mRead, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.connCheckRLocked(conn); err != nil {
		return ListEntry{}, err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return ListEntry{}, err
	}
	defer unlockCond()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[id]
	if !ok {
		return ListEntry{}, fmt.Errorf("%w: %q", ErrEntryNotFound, id)
	}
	return e.clone(), nil
}

// ReadFirst returns (without removing) the head entry of a list.
func (s *ListStructure) ReadFirst(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ListEntry{}, err
	}
	defer s.facility.charge(s.mReadFst, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.preambleRLocked(conn, list); err != nil {
		return ListEntry{}, err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return ListEntry{}, err
	}
	defer unlockCond()
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if len(lh.entries) == 0 {
		return ListEntry{}, fmt.Errorf("%w: list %d empty", ErrEntryNotFound, list)
	}
	e := lh.entries[0]
	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.clone(), nil
}

// Pop atomically removes and returns the head entry of a list —
// multi-system queue consumption without explicit serialization.
func (s *ListStructure) Pop(ctx context.Context, conn string, list int, cond Cond) (ListEntry, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ListEntry{}, err
	}
	defer s.facility.charge(s.mPop, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.preambleRLocked(conn, list); err != nil {
		return ListEntry{}, err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return ListEntry{}, err
	}
	defer unlockCond()
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if len(lh.entries) == 0 {
		return ListEntry{}, fmt.Errorf("%w: list %d empty", ErrEntryNotFound, list)
	}
	e := lh.entries[0]
	sh := s.shardFor(e.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	lh.entries = lh.entries[1:]
	delete(sh.m, e.ID)
	s.total.Add(-1)
	return e.clone(), nil
}

// Delete removes entry id. The target list is discovered through the
// entry, so an optimistic loop re-locks in hierarchy order (list before
// shard) and retries if the entry moved in the window.
func (s *ListStructure) Delete(ctx context.Context, conn, id string, cond Cond) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mDelete, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.connCheckRLocked(conn); err != nil {
		return err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return err
	}
	defer unlockCond()
	sh := s.shardFor(id)
	for {
		sh.mu.Lock()
		e, ok := sh.m[id]
		if !ok {
			sh.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrEntryNotFound, id)
		}
		list := e.List
		sh.mu.Unlock()

		lh := &s.lists[list]
		lh.mu.Lock()
		sh.mu.Lock()
		if cur, ok := sh.m[id]; !ok || cur != e || e.List != list {
			sh.mu.Unlock()
			lh.mu.Unlock()
			continue // entry moved or was replaced; retry
		}
		removeFrom(lh, e)
		delete(sh.m, id)
		s.total.Add(-1)
		sh.mu.Unlock()
		lh.mu.Unlock()
		return nil
	}
}

// Move atomically moves entry id to another list, with no window in
// which the entry is absent from both lists or present on both.
func (s *ListStructure) Move(ctx context.Context, conn, id string, toList int, order Order, cond Cond) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mMove, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.preambleRLocked(conn, toList); err != nil {
		return err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return err
	}
	defer unlockCond()
	sh := s.shardFor(id)
	for {
		sh.mu.Lock()
		e, ok := sh.m[id]
		if !ok {
			sh.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrEntryNotFound, id)
		}
		from := e.List
		sh.mu.Unlock()

		// Lock both list headers in ascending order, then the shard.
		lo, hi := from, toList
		if lo > hi {
			lo, hi = hi, lo
		}
		s.lists[lo].mu.Lock()
		if hi != lo {
			s.lists[hi].mu.Lock()
		}
		sh.mu.Lock()
		if cur, ok := sh.m[id]; !ok || cur != e || e.List != from {
			sh.mu.Unlock()
			if hi != lo {
				s.lists[hi].mu.Unlock()
			}
			s.lists[lo].mu.Unlock()
			continue // entry moved in the window; retry
		}
		fromHead, toHead := &s.lists[from], &s.lists[toList]
		removeFrom(fromHead, e)
		wasEmpty := len(toHead.entries) == 0
		insertInto(toHead, e, toList, order)
		if wasEmpty {
			s.signalTransition(toList)
		}
		sh.mu.Unlock()
		if hi != lo {
			s.lists[hi].mu.Unlock()
		}
		s.lists[lo].mu.Unlock()
		return nil
	}
}

// SetAdjunct updates an entry's adjunct area in place (atomically, like
// every list command).
func (s *ListStructure) SetAdjunct(ctx context.Context, conn, id, adjunct string, cond Cond) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mAdjunct, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.connCheckRLocked(conn); err != nil {
		return err
	}
	unlockCond, err := s.condGuard(conn, cond)
	if err != nil {
		return err
	}
	defer unlockCond()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrEntryNotFound, id)
	}
	e.Adjunct = adjunct
	return nil
}

// Len returns the number of entries on a list.
func (s *ListStructure) Len(list int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if list < 0 || list >= len(s.lists) {
		return 0
	}
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	return len(lh.entries)
}

// Entries returns copies of the entries on a list in queue order.
func (s *ListStructure) Entries(list int) []ListEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if list < 0 || list >= len(s.lists) {
		return nil
	}
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	out := make([]ListEntry, 0, len(lh.entries))
	for _, e := range lh.entries {
		sh := s.shardFor(e.ID)
		sh.mu.Lock()
		out = append(out, e.clone())
		sh.mu.Unlock()
	}
	return out
}

// TotalEntries returns the number of entries in the structure.
func (s *ListStructure) TotalEntries() int {
	return int(s.total.Load())
}

// Monitor registers conn's interest in empty→non-empty transitions of
// a list; the CF will set bit vecIdx in the connector's notification
// vector. If the list is already non-empty the bit is set immediately.
func (s *ListStructure) Monitor(ctx context.Context, conn string, list int, vecIdx int) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mMonitor, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.conns[conn]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotConnected, conn)
	}
	if c.vector == nil {
		return fmt.Errorf("%w: connector %q has no notification vector", ErrBadArgument, conn)
	}
	if list < 0 || list >= len(s.lists) {
		return fmt.Errorf("%w: list %d", ErrBadArgument, list)
	}
	lh := &s.lists[list]
	lh.mu.Lock()
	defer lh.mu.Unlock()
	s.monMu.Lock()
	m := s.monitors[list]
	if m == nil {
		m = make(map[string]int)
		s.monitors[list] = m
	}
	m[conn] = vecIdx
	s.monMu.Unlock()
	if len(lh.entries) > 0 {
		c.vector.Set(vecIdx)
	}
	return nil
}

// signalTransition fires the empty→non-empty signal. Called with the
// transitioning list's mutex held (mu.RLock above it), so the signal is
// ordered with the insert that caused it.
func (s *ListStructure) signalTransition(list int) {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	for conn, idx := range s.monitors[list] {
		if c := s.conns[conn]; c != nil && c.vector != nil {
			// As with cross-invalidation, the signal is a bit flip in the
			// target's vector; the target polls it, no interrupt occurs.
			c.vector.Set(idx)
			s.cTrans.Inc()
		}
	}
}

// insertInto places e on list under the head's mutex.
func insertInto(lh *listHead, e *ListEntry, list int, order Order) {
	e.List = list
	switch order {
	case LIFO:
		lh.entries = append([]*ListEntry{e}, lh.entries...)
	case Keyed:
		l := lh.entries
		pos := sort.Search(len(l), func(i int) bool { return l[i].Key > e.Key })
		l = append(l, nil)
		copy(l[pos+1:], l[pos:])
		l[pos] = e
		lh.entries = l
	default: // FIFO
		lh.entries = append(lh.entries, e)
	}
}

func removeFrom(lh *listHead, e *ListEntry) {
	l := lh.entries
	for i, x := range l {
		if x == e {
			lh.entries = append(l[:i], l[i+1:]...)
			return
		}
	}
}

// preambleRLocked validates connector and list bounds under mu.RLock.
func (s *ListStructure) preambleRLocked(conn string, list int) error {
	if err := s.connCheckRLocked(conn); err != nil {
		return err
	}
	if list < 0 || list >= len(s.lists) {
		return fmt.Errorf("%w: list %d of %d", ErrBadArgument, list, len(s.lists))
	}
	return nil
}

// condGuard enforces the conditional-execution protocol. When cond.Use,
// it returns with the lock entry's RLock held so the command stays
// ordered against SetLock; the caller releases via the returned func.
func (s *ListStructure) condGuard(conn string, cond Cond) (func(), error) {
	if !cond.Use {
		return func() {}, nil
	}
	if cond.LockIndex < 0 || cond.LockIndex >= len(s.locks) {
		return nil, fmt.Errorf("%w: lock entry %d", ErrBadArgument, cond.LockIndex)
	}
	l := &s.locks[cond.LockIndex]
	l.rw.RLock()
	if h := l.holder; h != "" && h != conn {
		l.rw.RUnlock()
		return nil, fmt.Errorf("%w: by %s", ErrLockHeld, h)
	}
	return l.rw.RUnlock, nil
}

func (s *ListStructure) connCheckRLocked(conn string) error {
	if _, ok := s.conns[conn]; !ok {
		return fmt.Errorf("%w: %q", ErrNotConnected, conn)
	}
	return nil
}

// storageBytes estimates the structure's footprint: list headers, lock
// entries, and the entry budget (entry controls + data element).
func (s *ListStructure) storageBytes() int64 {
	return int64(len(s.lists))*64 + int64(len(s.locks))*16 + int64(s.maxEntries)*512
}
