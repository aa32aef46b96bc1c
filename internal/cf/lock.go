package cf

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// LockMode is the interest level recorded in a lock table entry.
type LockMode int

// Lock modes.
const (
	Share LockMode = iota + 1
	Exclusive
)

// String names the mode.
func (m LockMode) String() string {
	switch m {
	case Share:
		return "share"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ObtainResult is the outcome of a lock-table obtain command.
type ObtainResult struct {
	// Granted reports CPU-synchronous grant (the common, contention-free
	// case, completing in microseconds per §3.3.1).
	Granted bool
	// Holders identifies the connectors holding incompatible interest
	// when Granted is false, enabling *selective* cross-system lock
	// negotiation rather than broadcast.
	Holders []string
	// Retained names the failed connector whose retained record refused
	// a request naming a resource; nothing was granted.
	Retained string
}

// LockRecord is persistent lock information recorded in the structure
// so that peer systems can recover ("retain") locks held by a failed
// system (§3.3.1). Owner is the record data: the unit of work holding
// the lock, which tells a peer's recovery whose changes the lock still
// protects.
type LockRecord struct {
	Connector string
	Resource  string
	Mode      LockMode
	Owner     string
}

// LockStructure is a CF lock-model structure: a program-specified
// number of lock table entries, each tracking per-connector share and
// exclusive interest, plus a record-data area for persistent locks.
//
// Concurrency: hash classes are independent by design (§3.3.1), so the
// lock table is striped per entry. Entry commands take mu.RLock plus
// the entry's own mutex; structure-wide operations (connect,
// disconnect, connector failure, clone) take mu.Lock, which excludes
// every entry mutator, and may then touch any entry or the record maps
// directly. A command naming a resource also takes recMu inside its
// entry's mutex, so screen, grant and record are one effect; the record
// commands take mu.RLock plus recMu.
type LockStructure struct {
	facility *Facility
	name     string

	mConnect cmdMetrics
	mObtain  cmdMetrics
	mForce   cmdMetrics
	mRel     cmdMetrics
	mDelRec  cmdMetrics
	mRecords cmdMetrics

	mu      sync.RWMutex // lintlock: level=10
	entries []lockEntry  // slice header immutable; elements striped
	conns   map[string]bool

	// recMu guards records and retained under mu.RLock. (mu.Lock holders
	// access them directly.)
	recMu sync.Mutex // lintlock: level=50
	// records holds persistent lock records keyed by connector.
	records map[string]map[string]LockRecord // conn -> resource -> record
	// retained marks connectors that failed; their records survive for
	// peer recovery until explicitly deleted.
	retained map[string]bool
}

type lockEntry struct {
	mu         sync.Mutex     // lintlock: level=30 — taken under LockStructure.mu.RLock
	exclOwner  string         // connector with exclusive interest ("" none)
	exclCount  int            // resources it holds exclusively on this entry
	shared     map[string]int // connector -> count of share interests
	forcedExcl map[string]int // software-managed exclusive interest per connector
}

// conflictsLocked lists, sorted, the connectors other than conn whose
// interest is incompatible with mode: exclusive interest (fast-path
// owner or software-managed), and for an exclusive request share too.
func (e *lockEntry) conflictsLocked(conn string, mode LockMode) []string {
	var holders []string
	if e.exclOwner != "" && e.exclOwner != conn {
		holders = append(holders, e.exclOwner)
	}
	for c, n := range e.forcedExcl {
		if c != conn && n > 0 {
			holders = append(holders, c)
		}
	}
	if mode == Exclusive {
		for c, n := range e.shared {
			if c != conn && n > 0 {
				holders = append(holders, c)
			}
		}
	}
	sort.Strings(holders)
	return dedup(holders)
}

// AllocateLockStructure allocates a lock structure with n lock table
// entries.
func (f *Facility) AllocateLockStructure(name string, n int) (Lock, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: lock table needs > 0 entries", ErrBadArgument)
	}
	s := &LockStructure{
		facility: f,
		name:     name,
		entries:  make([]lockEntry, n),
		conns:    make(map[string]bool),
		records:  make(map[string]map[string]LockRecord),
		retained: make(map[string]bool),
	}
	s.resolveMetrics(f)
	if err := f.allocate(name, s); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *LockStructure) resolveMetrics(f *Facility) {
	s.mConnect = f.cmdMetrics("lock.connect")
	s.mObtain = f.cmdMetrics("lock.obtain")
	s.mForce = f.cmdMetrics("lock.force")
	s.mRel = f.cmdMetrics("lock.release")
	s.mDelRec = f.cmdMetrics("lock.delrecord")
	s.mRecords = f.cmdMetrics("lock.records")
}

// LockStructure returns the named lock structure.
func (f *Facility) LockStructure(name string) (Lock, error) {
	s, err := f.lookup(name, LockModel)
	if err != nil {
		return nil, err
	}
	return s.(*LockStructure), nil
}

func (s *LockStructure) model() Model   { return LockModel }
func (s *LockStructure) fac() *Facility { return s.facility }

// cloneInto re-allocates the lock structure in dst with a deep copy of
// its entries, connectors, records, and retained state.
func (s *LockStructure) cloneInto(dst *Facility) (structure, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &LockStructure{
		facility: dst,
		name:     s.name,
		entries:  make([]lockEntry, len(s.entries)),
		conns:    make(map[string]bool, len(s.conns)),
		records:  make(map[string]map[string]LockRecord, len(s.records)),
		retained: make(map[string]bool, len(s.retained)),
	}
	n.resolveMetrics(dst)
	for i := range s.entries {
		e := &s.entries[i]
		ne := &n.entries[i]
		ne.exclOwner = e.exclOwner
		ne.exclCount = e.exclCount
		if len(e.shared) > 0 {
			ne.shared = make(map[string]int, len(e.shared))
			for c, v := range e.shared {
				ne.shared[c] = v
			}
		}
		if len(e.forcedExcl) > 0 {
			ne.forcedExcl = make(map[string]int, len(e.forcedExcl))
			for c, v := range e.forcedExcl {
				ne.forcedExcl[c] = v
			}
		}
	}
	for c := range s.conns {
		n.conns[c] = true
	}
	for c, m := range s.records {
		nm := make(map[string]LockRecord, len(m))
		for r, rec := range m {
			nm[r] = rec
		}
		n.records[c] = nm
	}
	for c := range s.retained {
		n.retained[c] = true
	}
	if err := dst.allocate(s.name, n); err != nil {
		return nil, err
	}
	return n, nil
}

// Name returns the structure name.
func (s *LockStructure) Name() string { return s.name }

// Entries returns the lock table size (fixed at allocation).
func (s *LockStructure) Entries() int { return len(s.entries) }

// Connect attaches a connector (a system's lock manager instance).
func (s *LockStructure) Connect(ctx context.Context, conn string) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mConnect, start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[conn] = true
	delete(s.retained, conn) // reconnect after recovery
	return nil
}

func (s *LockStructure) disconnect(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	s.cleanupInterestLocked(conn)
	delete(s.records, conn) // normal shutdown: nothing to retain
}

func (s *LockStructure) failConnector(conn string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.conns[conn] {
		return
	}
	delete(s.conns, conn)
	s.cleanupInterestLocked(conn)
	if len(s.records[conn]) > 0 {
		s.retained[conn] = true // persistent records retained for recovery
	}
}

// cleanupInterestLocked runs under mu.Lock, which excludes every entry
// mutator, so entries are touched without their stripe mutexes.
func (s *LockStructure) cleanupInterestLocked(conn string) {
	for i := range s.entries {
		e := &s.entries[i]
		if e.exclOwner == conn {
			e.exclOwner = ""
			e.exclCount = 0
		}
		delete(e.shared, conn)
		delete(e.forcedExcl, conn)
	}
}

// HashResource maps a software lock resource name to a lock table
// entry, the "software-hashing" of §3.3.1.
func (s *LockStructure) HashResource(resource string) int {
	return hashResource(resource, len(s.entries))
}

// Obtain records interest of the given mode on lock table entry idx for
// conn. In the compatible case the request is granted synchronously;
// otherwise the connectors holding incompatible interest are returned
// for selective negotiation. It names no resource: no retained screen,
// no record (ObtainResource is the same command with both).
func (s *LockStructure) Obtain(ctx context.Context, idx int, conn string, mode LockMode) (ObtainResult, error) {
	return s.obtain(ctx, &Cmd{Idx: idx, Conn: conn, Mode: mode}, false)
}

// ObtainResource is lock.obtain on resource's entry, naming the
// resource and its owner (a unit of work). In one critical section it
// refuses a request that conflicts with a failed connector's retained
// record of the resource (the result names that connector), else makes
// Obtain's grant decision, and on an exclusive grant writes the
// persistent record naming the owner (§3.3.1: persistent lock
// information "to enable fast lock recovery in the event of an MVS
// system failure while holding lock resources").
func (s *LockStructure) ObtainResource(ctx context.Context, conn, resource, owner string, mode LockMode) (ObtainResult, error) {
	return s.obtain(ctx, &Cmd{Idx: s.HashResource(resource), Conn: conn, Name: resource, Key: owner, Mode: mode}, false)
}

// ForceObtain records interest regardless of entry compatibility. It is
// issued after software negotiation determines the conflict was false
// (different resources hashing to the same entry) or after the holder
// granted compatibility at the resource level; from then on the entry
// is software-managed, exactly the exception path §3.3.1 describes.
func (s *LockStructure) ForceObtain(ctx context.Context, idx int, conn string, mode LockMode) error {
	_, err := s.obtain(ctx, &Cmd{Idx: idx, Conn: conn, Mode: mode}, true)
	return err
}

// ForceObtainResource is lock.force naming the resource and owner: the
// retained screen and the record write of ObtainResource around
// ForceObtain's unconditional grant.
func (s *LockStructure) ForceObtainResource(ctx context.Context, conn, resource, owner string, mode LockMode) (ObtainResult, error) {
	return s.obtain(ctx, &Cmd{Idx: s.HashResource(resource), Conn: conn, Name: resource, Key: owner, Mode: mode}, true)
}

// obtain is lock.obtain (force false) and lock.force (force true). A
// command naming a resource (c.Name, owner c.Key) is screened against
// retained records and, granted exclusive, records its owner, all under
// the entry's mutex, so screen, grant and record are one effect.
func (s *LockStructure) obtain(ctx context.Context, c *Cmd, force bool) (ObtainResult, error) {
	m := &s.mObtain
	if force {
		m = &s.mForce
	}
	start, err := s.facility.begin(ctx)
	if err != nil {
		return ObtainResult{}, err
	}
	defer s.facility.charge(*m, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRLocked(c.Idx, c.Conn, c.Name, c.Mode); err != nil {
		return ObtainResult{}, err
	}
	e := &s.entries[c.Idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.Name != "" {
		s.recMu.Lock()
		defer s.recMu.Unlock()
		if failed := s.retainedHolderLocked(c.Name, c.Mode); failed != "" {
			return ObtainResult{Retained: failed}, nil
		}
	}
	conn := c.Conn
	if !force {
		if holders := e.conflictsLocked(conn, c.Mode); len(holders) > 0 {
			return ObtainResult{Holders: holders}, nil
		}
	}
	switch {
	case c.Mode == Share:
		if e.shared == nil {
			e.shared = make(map[string]int)
		}
		e.shared[conn]++
	case e.exclOwner == conn || (e.exclOwner == "" && !force):
		// The fast-path owner slot; a forced grant leaves it alone and
		// records software-managed interest instead.
		e.exclOwner = conn
		e.exclCount++
	default:
		if e.forcedExcl == nil {
			e.forcedExcl = make(map[string]int)
		}
		e.forcedExcl[conn]++
	}
	if c.Name != "" && c.Mode == Exclusive {
		recs := s.records[conn]
		if recs == nil {
			recs = make(map[string]LockRecord)
			s.records[conn] = recs
		}
		recs[c.Name] = LockRecord{Connector: conn, Resource: c.Name, Mode: c.Mode, Owner: c.Key}
	}
	return ObtainResult{Granted: true}, nil
}

// retainedHolderLocked returns the failed connector whose retained
// record of resource conflicts with a request in mode ("" if none; the
// least name if several, so replicas answer alike). Runs under recMu.
func (s *LockStructure) retainedHolderLocked(resource string, mode LockMode) string {
	failed := ""
	for conn := range s.retained {
		rec, ok := s.records[conn][resource]
		if ok && (mode == Exclusive || rec.Mode == Exclusive) && (failed == "" || conn < failed) {
			failed = conn
		}
	}
	return failed
}

// Release drops one unit of interest of the given mode for conn.
func (s *LockStructure) Release(ctx context.Context, idx int, conn string, mode LockMode) error {
	return s.release(ctx, &Cmd{Idx: idx, Conn: conn, Mode: mode})
}

// ReleaseResource is lock.release on resource's entry: an exclusive
// release also deletes conn's record of the resource while owner still
// owns it, so a late release cannot remove the record of the next owner
// on the same connector.
func (s *LockStructure) ReleaseResource(ctx context.Context, conn, resource, owner string, mode LockMode) error {
	return s.release(ctx, &Cmd{Idx: s.HashResource(resource), Conn: conn, Name: resource, Key: owner, Mode: mode})
}

func (s *LockStructure) release(ctx context.Context, c *Cmd) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mRel, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRLocked(c.Idx, c.Conn, c.Name, c.Mode); err != nil {
		return err
	}
	e := &s.entries[c.Idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	conn := c.Conn
	switch {
	case c.Mode == Share:
		if e.shared[conn] > 0 {
			e.shared[conn]--
			if e.shared[conn] == 0 {
				delete(e.shared, conn)
			}
		}
	case e.exclOwner == conn && e.exclCount > 0:
		e.exclCount--
		if e.exclCount == 0 {
			e.exclOwner = ""
		}
	case e.forcedExcl[conn] > 0:
		e.forcedExcl[conn]--
		if e.forcedExcl[conn] == 0 {
			delete(e.forcedExcl, conn)
		}
	}
	if c.Name != "" && c.Mode == Exclusive {
		s.recMu.Lock()
		s.deleteRecordLocked(conn, c.Name, c.Key)
		s.recMu.Unlock()
	}
	return nil
}

// Interest reports conn's recorded interest counts on entry idx
// (share, exclusive), for diagnostics and tests.
func (s *LockStructure) Interest(idx int, conn string) (share, excl int, err error) {
	if idx < 0 || idx >= len(s.entries) {
		return 0, 0, fmt.Errorf("%w: entry %d", ErrBadArgument, idx)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := &s.entries[idx]
	e.mu.Lock()
	defer e.mu.Unlock()
	share = e.shared[conn]
	if e.exclOwner == conn {
		excl = e.exclCount
	}
	excl += e.forcedExcl[conn]
	return share, excl, nil
}

// DeleteRecord removes conn's persistent lock record of resource
// (recovery for that resource complete). A non-empty owner deletes the
// record only while that unit of work still owns it. Like every command
// on a resource's record it is keyed on the resource's entry, so on a
// duplexed pair it is ordered against obtains of the resource.
func (s *LockStructure) DeleteRecord(ctx context.Context, conn, resource, owner string) error {
	return s.deleteRecord(ctx, &Cmd{Idx: s.HashResource(resource), Conn: conn, Name: resource, Key: owner})
}

func (s *LockStructure) deleteRecord(ctx context.Context, c *Cmd) error {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return err
	}
	defer s.facility.charge(s.mDelRec, start)
	if c.Idx != s.HashResource(c.Name) {
		return fmt.Errorf("%w: entry %d is not %q's", ErrBadArgument, c.Idx, c.Name)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.deleteRecordLocked(c.Conn, c.Name, c.Key)
	return nil
}

// deleteRecordLocked runs under recMu; see DeleteRecord. A live
// connector keeps its emptied record map for its next exclusive grant;
// a failed one's retention ends with its last record.
func (s *LockStructure) deleteRecordLocked(conn, resource, owner string) {
	m := s.records[conn]
	if rec, ok := m[resource]; !ok || (owner != "" && rec.Owner != owner) {
		return
	}
	delete(m, resource)
	if len(m) == 0 && s.retained[conn] {
		delete(s.records, conn)
		delete(s.retained, conn)
	}
}

// Records returns the persistent lock records for conn (a peer reads a
// failed connector's records to perform lock recovery), sorted by
// resource.
func (s *LockStructure) Records(ctx context.Context, conn string) ([]LockRecord, error) {
	start, err := s.facility.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer s.facility.charge(s.mRecords, start)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	m := s.records[conn]
	out := make([]LockRecord, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Resource < out[j].Resource })
	return out, nil
}

// checkRLocked validates a lock-table command under mu.RLock: the entry
// index (the named resource's own entry, if it names one), the
// connector and the mode.
func (s *LockStructure) checkRLocked(idx int, conn, resource string, mode LockMode) error {
	switch {
	case idx < 0 || idx >= len(s.entries):
		return fmt.Errorf("%w: entry %d of %d", ErrBadArgument, idx, len(s.entries))
	case resource != "" && idx != s.HashResource(resource):
		return fmt.Errorf("%w: entry %d is not %q's", ErrBadArgument, idx, resource)
	case !s.conns[conn]:
		return fmt.Errorf("%w: %q", ErrNotConnected, conn)
	case mode != Share && mode != Exclusive:
		return fmt.Errorf("%w: mode %v", ErrBadArgument, mode)
	}
	return nil
}

func dedup(in []string) []string {
	out := in[:0]
	var last string
	for i, v := range in {
		if i == 0 || v != last {
			out = append(out, v)
		}
		last = v
	}
	return out
}

// storageBytes estimates the structure's CF storage footprint: each
// lock table entry is a word of interest bits plus record-data budget.
func (s *LockStructure) storageBytes() int64 {
	return int64(len(s.entries)) * 64
}
