// Package lockmgr implements an IRLM-style distributed lock manager on
// top of the CF lock structure (§3.3.1). Each system runs one Manager;
// software locks hash onto CF lock table entries, and:
//
//   - the common case is a CPU-synchronous grant from the CF with no
//     inter-system communication;
//   - on entry contention the CF returns the identity of the holding
//     system(s), and the requester negotiates *selectively* with just
//     those systems over XCF signalling — false contention (distinct
//     resources hashing to one entry) is detected there and resolved
//     with a software-managed grant;
//   - exclusive locks are recorded as persistent lock records, each
//     naming its owner, so a peer can recover ("retain") the locks of a
//     failed system and tell whose changes they protect: until recovery
//     completes, the CF refuses requests conflicting with a retained
//     lock. Screen, grant and record are one CF command, and a release
//     and its record delete another;
//   - cross-system deadlocks are found by a waits-for-graph detector.
//
// The manager holds its lock structure for life. A move to another
// coupling facility is CFRM's structure rebuild (cfrm.Manager.Rebuild),
// which copies interest, records and retained records with the
// structure; the manager takes no part in it.
package lockmgr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

// Errors returned by Lock.
var (
	ErrTimeout  = errors.New("lockmgr: lock wait timed out")
	ErrDeadlock = errors.New("lockmgr: victim of deadlock resolution")
	ErrRetained = errors.New("lockmgr: resource protected by retained lock of failed system")
	ErrShutdown = errors.New("lockmgr: manager shut down")
)

// Mode re-exports the CF lock modes for callers.
type Mode = cf.LockMode

// Lock modes.
const (
	Share     = cf.Share
	Exclusive = cf.Exclusive
)

const service = "irlm"

// Stats summarize a manager's activity.
type Stats struct {
	Locks            int64 // granted lock requests
	FastGrants       int64 // granted synchronously by the CF, no messages
	Contentions      int64 // CF reported entry contention
	FalseContentions int64 // contention resolved as false (hash collision)
	RealContentions  int64 // contention on the same resource
	Negotiations     int64 // negotiation messages sent
	Deadlocks        int64 // local waiters aborted as deadlock victims
	Timeouts         int64
}

// Manager is one system's local lock manager.
type Manager struct {
	sysName string
	system  *xcf.System
	ls      cf.Lock
	clock   vclock.Clock
	reg     *metrics.Registry

	mu        sync.Mutex
	resources map[string]*resource
	pending   map[uint64]chan negotiateReply
	nextReq   uint64
	stats     Stats
	shutdown  bool
}

// upgraded marks a holder's exclusive mode as upgraded from share: the
// superseded share unit stays on the CF entry until the release, which
// drops both (own share never blocks own exclusive, and the exclusive
// already excludes every other system). A held mode is therefore Share,
// Exclusive or Exclusive|upgraded.
const upgraded cf.LockMode = 1 << 4

// resource is the local lock state for one resource name.
type resource struct {
	name    string
	holders map[string]cf.LockMode // owner -> mode (local holders)
	waiters []*waiter
	// remoteWaiters lists systems waiting for this manager to release
	// the resource; they are signalled on release.
	remoteWaiters map[string]bool
}

type waiter struct {
	owner  string
	mode   cf.LockMode
	wake   chan struct{}
	abort  chan struct{} // closed by deadlock detection
	blocks []string      // owner IDs this waiter currently waits behind
}

// New creates the lock manager for a system, connects it to the CF lock
// structure and binds its negotiation service.
func New(ctx context.Context, system *xcf.System, ls cf.Lock, clock vclock.Clock) (*Manager, error) {
	if clock == nil {
		clock = vclock.Real()
	}
	m := &Manager{
		sysName:   system.Name(),
		system:    system,
		ls:        ls,
		clock:     clock,
		reg:       metrics.NewRegistry(),
		resources: make(map[string]*resource),
		pending:   make(map[uint64]chan negotiateReply),
	}
	if err := ls.Connect(ctx, m.sysName); err != nil {
		return nil, err
	}
	system.BindService(service, m.handleMessage)
	return m, nil
}

// System returns the owning system name.
func (m *Manager) System() string { return m.sysName }

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Metrics exposes the manager's latency instrumentation.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Shutdown marks the manager stopped; subsequent Lock calls fail and
// blocked waiters are released with ErrShutdown.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.shutdown = true
	var toWake []*waiter
	for _, r := range m.resources {
		toWake = append(toWake, r.waiters...)
		r.waiters = nil
	}
	m.mu.Unlock()
	for _, w := range toWake {
		close(w.abort)
	}
}

// Lock obtains resource in the given mode for owner (a transaction or
// unit-of-work ID unique within the sysplex). It blocks up to timeout.
func (m *Manager) Lock(ctx context.Context, owner, resourceName string, mode cf.LockMode, timeout time.Duration) error {
	start := m.clock.Now()
	deadline := start.Add(timeout)
	defer func() { m.reg.Histogram("lock.latency").Observe(m.clock.Since(start)) }()
	for {
		if err := vclock.Check(ctx, m.clock); err != nil {
			return err
		}
		st, err := m.tryLock(ctx, owner, resourceName, mode)
		if err != nil {
			return err
		}
		if st.granted {
			return nil
		}
		// Blocked: wait for a wake-up, abort, or timeout.
		remain := deadline.Sub(m.clock.Now())
		if remain <= 0 {
			m.removeWaiter(resourceName, st.w)
			m.bump(func(s *Stats) { s.Timeouts++ })
			return fmt.Errorf("%w: %s %v %s", ErrTimeout, owner, mode, resourceName)
		}
		select {
		case <-ctx.Done():
			m.removeWaiter(resourceName, st.w)
			return ctx.Err()
		case <-st.w.wake:
			// retry
		case <-st.w.abort:
			m.removeWaiter(resourceName, st.w)
			m.mu.Lock()
			down := m.shutdown
			m.mu.Unlock()
			if down {
				return ErrShutdown
			}
			m.bump(func(s *Stats) { s.Deadlocks++ })
			return fmt.Errorf("%w: %s on %s", ErrDeadlock, owner, resourceName)
		case <-m.clock.After(remain):
			m.removeWaiter(resourceName, st.w)
			m.bump(func(s *Stats) { s.Timeouts++ })
			return fmt.Errorf("%w: %s %v %s", ErrTimeout, owner, mode, resourceName)
		}
	}
}

type tryResult struct {
	granted bool
	w       *waiter
}

// tryLock makes one grant attempt; if blocked it installs and returns a
// waiter.
func (m *Manager) tryLock(ctx context.Context, owner, resourceName string, mode cf.LockMode) (tryResult, error) {
	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		return tryResult{}, ErrShutdown
	}
	r := m.resourceLocked(resourceName)
	// Intra-system conflict: queue locally, no CF traffic.
	if blockers := localConflicts(r, owner, mode); len(blockers) > 0 {
		w := m.installWaiterLocked(r, owner, mode, blockers)
		m.mu.Unlock()
		return tryResult{w: w}, nil
	}
	// Re-grant / upgrade by the same owner.
	cur := r.holders[owner]
	if cur != 0 && (cur == mode || cur != cf.Share) {
		m.mu.Unlock()
		m.bump(func(s *Stats) { s.Locks++; s.FastGrants++ })
		return tryResult{granted: true}, nil
	}
	m.mu.Unlock()

	// One CF command screens the retained locks of failed systems (the
	// resources stay protected until peer recovery deletes the
	// records), grants, and records an exclusive grant's owner.
	ls := m.ls
	res, err := ls.ObtainResource(ctx, m.sysName, resourceName, owner, mode)
	if err = retainedErr(res, resourceName, err); err != nil {
		return tryResult{}, err
	}
	if res.Granted {
		m.grantLocal(resourceName, owner, mode, cur)
		m.bump(func(s *Stats) { s.Locks++; s.FastGrants++ })
		return tryResult{granted: true}, nil
	}

	// Entry contention: negotiate selectively with the holders the CF
	// identified.
	m.bump(func(s *Stats) { s.Contentions++ })
	conflictOwners, err := m.negotiate(res.Holders, resourceName, mode)
	if err != nil {
		return tryResult{}, err
	}
	if len(conflictOwners) == 0 {
		// False contention: distinct resources share the entry.
		m.bump(func(s *Stats) { s.FalseContentions++ })
		res, err := ls.ForceObtainResource(ctx, m.sysName, resourceName, owner, mode)
		if err = retainedErr(res, resourceName, err); err != nil {
			return tryResult{}, err
		}
		m.grantLocal(resourceName, owner, mode, cur)
		m.bump(func(s *Stats) { s.Locks++ })
		return tryResult{granted: true}, nil
	}
	// Real contention: wait for the remote release signal.
	m.bump(func(s *Stats) { s.RealContentions++ })
	m.mu.Lock()
	r = m.resourceLocked(resourceName)
	w := m.installWaiterLocked(r, owner, mode, conflictOwners)
	m.mu.Unlock()
	return tryResult{w: w}, nil
}

// Unlock releases owner's hold on the resource.
func (m *Manager) Unlock(ctx context.Context, owner, resourceName string) error {
	return m.UnlockAll(ctx, owner, []string{resourceName})
}

// UnlockAll releases owner's hold on every named resource using one CF
// batch: the local grant tables are updated in a single pass, then all
// the entry releases — an exclusive one deleting its record, an
// upgraded one also dropping its share unit — travel to the CF as one
// envelope (one link crossing on a transport CF) via cf.Lock.Batch, and
// finally local and remote waiters are woken. This is the commit-time
// bulk release; every command on a resource is keyed on its entry, so
// per-key ordering inside the batch is enough. Resources owner does not
// hold are skipped.
func (m *Manager) UnlockAll(ctx context.Context, owner string, resourceNames []string) error {
	if len(resourceNames) == 0 {
		return nil
	}
	type remoteWake struct {
		sys, name string
	}
	var (
		cmds    = make([]cf.Cmd, 0, len(resourceNames)+1)
		toWake  []*waiter
		remotes []remoteWake
	)
	ls := m.ls
	m.mu.Lock()
	for _, resourceName := range resourceNames {
		r := m.resources[resourceName]
		if r == nil {
			continue
		}
		mode, ok := r.holders[owner]
		if !ok {
			continue
		}
		delete(r.holders, owner)
		toWake = append(toWake, r.waiters...)
		for sysN := range r.remoteWaiters {
			remotes = append(remotes, remoteWake{sysN, resourceName})
		}
		r.remoteWaiters = make(map[string]bool)
		if len(r.holders) == 0 && len(r.waiters) == 0 {
			delete(m.resources, resourceName)
		}
		c := cf.Cmd{Kind: cf.CmdLockRelease, Idx: ls.HashResource(resourceName), Conn: m.sysName, Mode: mode &^ upgraded}
		if mode != cf.Share {
			// The owner condition keeps a release that lands after the
			// next local owner's grant from deleting that owner's record.
			c.Name, c.Key = resourceName, owner
		}
		cmds = append(cmds, c)
		if mode&upgraded != 0 {
			c.Mode, c.Name, c.Key = cf.Share, "", ""
			cmds = append(cmds, c)
		}
	}
	m.mu.Unlock()
	if len(cmds) == 0 {
		return nil
	}

	var firstErr error
	for start := 0; start < len(cmds); start += cf.MaxBatchOps {
		chunk := cmds[start:min(start+cf.MaxBatchOps, len(cmds))]
		if err := cf.FirstErr(ls.Batch(ctx, chunk)); err != nil && firstErr == nil && !errors.Is(err, cf.ErrNotConnected) {
			firstErr = err
		}
	}
	// Wake waiters even if the CF refused something: the local grants
	// are gone and the waiters must re-drive.
	for _, w := range toWake {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	for _, rw := range remotes {
		m.send(rw.sys, wireMsg{Type: msgWakeup, Resource: rw.name})
	}
	return firstErr
}

// HeldMode reports owner's current mode on a resource (0 if none).
func (m *Manager) HeldMode(owner, resourceName string) cf.LockMode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.resources[resourceName]; r != nil {
		return r.holders[owner] &^ upgraded
	}
	return 0
}

// grantLocal records a lock the CF granted (with its record, for an
// exclusive one); prev is the owner's mode before, Share for an upgrade.
func (m *Manager) grantLocal(resourceName, owner string, mode, prev cf.LockMode) {
	if prev == cf.Share && mode == cf.Exclusive {
		mode |= upgraded
	}
	m.mu.Lock()
	m.resourceLocked(resourceName).holders[owner] = mode
	m.mu.Unlock()
}

// retainedErr folds a CF obtain's outcome to an error: the command's
// own, or ErrRetained naming the failed system whose retained record
// refused the request.
func retainedErr(res cf.ObtainResult, resourceName string, err error) error {
	if err == nil && res.Retained != "" {
		err = fmt.Errorf("%w: %s held by failed %s", ErrRetained, resourceName, res.Retained)
	}
	return err
}

func (m *Manager) resourceLocked(name string) *resource {
	r := m.resources[name]
	if r == nil {
		r = &resource{
			name:          name,
			holders:       make(map[string]cf.LockMode),
			remoteWaiters: make(map[string]bool),
		}
		m.resources[name] = r
	}
	return r
}

func (m *Manager) installWaiterLocked(r *resource, owner string, mode cf.LockMode, blocks []string) *waiter {
	w := &waiter{
		owner:  owner,
		mode:   mode,
		wake:   make(chan struct{}, 1),
		abort:  make(chan struct{}),
		blocks: blocks,
	}
	r.waiters = append(r.waiters, w)
	return w
}

func (m *Manager) removeWaiter(resourceName string, w *waiter) {
	if w == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.resources[resourceName]
	if r == nil {
		return
	}
	for i, x := range r.waiters {
		if x == w {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			break
		}
	}
	if len(r.holders) == 0 && len(r.waiters) == 0 {
		delete(m.resources, resourceName)
	}
}

// localConflicts returns local owners whose holds are incompatible.
func localConflicts(r *resource, owner string, mode cf.LockMode) []string {
	var out []string
	for o, held := range r.holders {
		if o == owner {
			continue
		}
		if mode == cf.Exclusive || held != cf.Share {
			out = append(out, o)
		}
	}
	sort.Strings(out)
	return out
}

// RetainedResources lists resources protected on behalf of a failed
// system, each with its owner (recovery reads this to drive redo).
func (m *Manager) RetainedResources(ctx context.Context, failedSys string) ([]cf.LockRecord, error) {
	return m.ls.Records(ctx, failedSys)
}

// ReleaseRetained deletes the retained record for one resource of a
// failed system once its recovery is complete.
func (m *Manager) ReleaseRetained(ctx context.Context, failedSys, resourceName string) error {
	return m.ls.DeleteRecord(ctx, failedSys, resourceName, "")
}

func (m *Manager) bump(fn func(*Stats)) {
	m.mu.Lock()
	fn(&m.stats)
	m.mu.Unlock()
}

// --- negotiation protocol over XCF signalling ---

type msgType string

const (
	msgNegotiate msgType = "negotiate"
	msgReply     msgType = "reply"
	msgWakeup    msgType = "wakeup"
)

type wireMsg struct {
	Type     msgType  `json:"type"`
	Req      uint64   `json:"req,omitempty"`
	Resource string   `json:"resource,omitempty"`
	Mode     int      `json:"mode,omitempty"`
	Conflict bool     `json:"conflict,omitempty"`
	Owners   []string `json:"owners,omitempty"`
}

type negotiateReply struct {
	conflict bool
	owners   []string
}

// negotiate asks each holding system whether a real conflict exists on
// the actual resource. It returns the owner IDs that truly conflict
// (empty means false contention).
func (m *Manager) negotiate(holders []string, resourceName string, mode cf.LockMode) ([]string, error) {
	var conflictOwners []string
	for _, holderSys := range holders {
		if holderSys == m.sysName {
			continue
		}
		m.bump(func(s *Stats) { s.Negotiations++ })
		reply, err := m.ask(holderSys, resourceName, mode)
		if err != nil {
			// Holder died mid-negotiation; its interest will be cleaned
			// up by XCF/CF failure handling. Treat as no conflict.
			continue
		}
		if reply.conflict {
			conflictOwners = append(conflictOwners, reply.owners...)
		}
	}
	sort.Strings(conflictOwners)
	return conflictOwners, nil
}

func (m *Manager) ask(holderSys, resourceName string, mode cf.LockMode) (negotiateReply, error) {
	m.mu.Lock()
	m.nextReq++
	req := m.nextReq
	ch := make(chan negotiateReply, 1)
	m.pending[req] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, req)
		m.mu.Unlock()
	}()
	err := m.send(holderSys, wireMsg{Type: msgNegotiate, Req: req, Resource: resourceName, Mode: int(mode)})
	if err != nil {
		return negotiateReply{}, err
	}
	select {
	case r := <-ch:
		return r, nil
	case <-m.clock.After(2 * time.Second):
		return negotiateReply{}, fmt.Errorf("lockmgr: negotiation with %s timed out", holderSys)
	}
}

func (m *Manager) send(toSys string, msg wireMsg) error {
	raw, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	return m.system.Send(toSys, service, raw)
}

// handleMessage dispatches inbound IRLM protocol messages.
func (m *Manager) handleMessage(from string, payload []byte) {
	var msg wireMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	switch msg.Type {
	case msgNegotiate:
		conflict, owners := m.checkConflict(from, msg.Resource, cf.LockMode(msg.Mode))
		m.send(from, wireMsg{Type: msgReply, Req: msg.Req, Conflict: conflict, Owners: owners})
	case msgReply:
		m.mu.Lock()
		ch := m.pending[msg.Req]
		m.mu.Unlock()
		if ch != nil {
			ch <- negotiateReply{conflict: msg.Conflict, owners: msg.Owners}
		}
	case msgWakeup:
		m.mu.Lock()
		r := m.resources[msg.Resource]
		var toWake []*waiter
		if r != nil {
			toWake = append(toWake, r.waiters...)
		}
		m.mu.Unlock()
		for _, w := range toWake {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

// checkConflict answers a negotiation request: does this system hold
// the named resource in a mode incompatible with the request? If yes,
// the requester's system is registered for a release signal.
func (m *Manager) checkConflict(fromSys, resourceName string, mode cf.LockMode) (bool, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.resources[resourceName]
	if r == nil {
		return false, nil
	}
	var owners []string
	for o, held := range r.holders {
		if mode == cf.Exclusive || held != cf.Share {
			owners = append(owners, o)
		}
	}
	if len(owners) == 0 {
		return false, nil
	}
	r.remoteWaiters[fromSys] = true
	sort.Strings(owners)
	return true, owners
}

// --- deadlock detection ---

// Edge is one waits-for relation between lock owners.
type Edge struct {
	Waiter string
	Holder string
}

// WaitEdges snapshots this manager's local waits-for edges.
func (m *Manager) WaitEdges() []Edge {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Edge
	for _, r := range m.resources {
		for _, w := range r.waiters {
			// Edges recorded at block time plus current local holders.
			seen := map[string]bool{}
			for _, h := range w.blocks {
				if h != w.owner && !seen[h] {
					out = append(out, Edge{Waiter: w.owner, Holder: h})
					seen[h] = true
				}
			}
			for o := range r.holders {
				if o != w.owner && !seen[o] {
					out = append(out, Edge{Waiter: w.owner, Holder: o})
					seen[o] = true
				}
			}
		}
	}
	return out
}

// abortOwnerWaiters aborts every waiter belonging to owner.
func (m *Manager) abortOwnerWaiters(owner string) int {
	m.mu.Lock()
	var victims []*waiter
	for _, r := range m.resources {
		for _, w := range r.waiters {
			if w.owner == owner {
				victims = append(victims, w)
			}
		}
	}
	m.mu.Unlock()
	for _, w := range victims {
		select {
		case <-w.abort:
		default:
			close(w.abort)
		}
	}
	return len(victims)
}

// Detector periodically gathers waits-for edges from all managers and
// aborts one victim per cycle (the lexicographically greatest owner,
// approximating "youngest" for sequence-named transactions).
type Detector struct {
	managers func() []*Manager
}

// NewDetector builds a detector over a dynamic manager set.
func NewDetector(managers func() []*Manager) *Detector {
	return &Detector{managers: managers}
}

// DetectOnce runs one global detection pass and returns the victims
// aborted.
func (d *Detector) DetectOnce() []string {
	mgrs := d.managers()
	adj := map[string]map[string]bool{}
	for _, m := range mgrs {
		for _, e := range m.WaitEdges() {
			if adj[e.Waiter] == nil {
				adj[e.Waiter] = map[string]bool{}
			}
			adj[e.Waiter][e.Holder] = true
		}
	}
	var victims []string
	for {
		cycle := findCycle(adj)
		if len(cycle) == 0 {
			break
		}
		victim := cycle[0]
		for _, o := range cycle {
			if o > victim {
				victim = o
			}
		}
		victims = append(victims, victim)
		delete(adj, victim)
		for _, m := range mgrs {
			m.abortOwnerWaiters(victim)
		}
	}
	return victims
}

// findCycle returns the owners on one cycle in the waits-for graph
// (empty if acyclic).
func findCycle(adj map[string]map[string]bool) []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	parent := map[string]string{}
	var cycle []string
	var dfs func(u string) bool
	dfs = func(u string) bool {
		color[u] = gray
		next := make([]string, 0, len(adj[u]))
		for v := range adj[u] {
			next = append(next, v)
		}
		sort.Strings(next)
		for _, v := range next {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a cycle v -> ... -> u -> v.
				cycle = append(cycle, v)
				for x := u; x != v && x != ""; x = parent[x] {
					cycle = append(cycle, x)
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	nodes := make([]string, 0, len(adj))
	for u := range adj {
		nodes = append(nodes, u)
	}
	sort.Strings(nodes)
	for _, u := range nodes {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}
