// Package cfrm emulates CF Resource Management: the policy-driven
// subsystem that owns the sysplex's fleet of coupling facilities and
// keeps structures available across CF failures.
//
// A CFRM policy names a preference list of candidate facilities. The
// manager brings up the first candidate as primary and — when the
// policy enables duplexing (the default) — the second as secondary,
// running every structure duplexed through a cf.Duplexed front:
// mutating commands are mirrored to both facilities, reads are served
// from the primary.
//
// The availability state machine:
//
//		simplex ──establish──▶ duplexed ──primary fails──▶ failover
//		   ▲                      │                            │
//		   └──────── re-duplex into next candidate ◀───────────┘
//
//	  - Unplanned primary failure: the first command to observe ErrCFDown
//	    (or the CF health monitor, whichever is first) promotes the
//	    secondary in-line; the command retries transparently, no data is
//	    lost, no operator acts. The manager then re-duplexes into the
//	    next candidate in the background.
//	  - Unplanned secondary failure (or replica divergence): duplexing
//	    breaks, the pair degrades to simplex on the primary, and the
//	    manager re-duplexes in the background.
//	  - Planned rebuild (Rebuild): if simplex, the manager first
//	    synchronously duplexes into a fresh candidate — all-or-nothing,
//	    the old facility stays current until every structure is copied —
//	    then switches the primary role and retires the old facility.
package cfrm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// Mode selects whether structures run duplexed.
type Mode int

// Duplexing modes. The zero value enables duplexing, so a zero Policy
// gets the availability behaviour the paper motivates.
const (
	ModeDuplexed Mode = iota
	ModeSimplex
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeDuplexed:
		return "duplexed"
	case ModeSimplex:
		return "simplex"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Policy is a CFRM policy: the candidate coupling facilities, in
// preference order, and how structures should run on them.
type Policy struct {
	// Candidates is the CF preference list. Empty defaults to
	// CF01..CF03. When failures exhaust the list the manager keeps
	// generating fresh facilities (CF04, CF05, ...) — the emulation's
	// stand-in for repaired hardware re-entering the policy.
	Candidates []string
	// Mode selects duplexed (default) or simplex structures.
	Mode Mode
	// Storage bounds each facility's structure storage in bytes
	// (0 = unconstrained).
	Storage int64
	// Nodes, when non-empty, is an explicit pre-built CF fleet —
	// typically cflink clients for facilities running in other
	// processes — consumed in preference order instead of constructing
	// in-process facilities from Candidates. The fleet is fixed: once
	// failures exhaust it the manager cannot mint replacements, so the
	// pair stays simplex on the surviving node (real hardware does not
	// respawn; the Candidates path keeps its fresh-facility behaviour
	// for in-process experiments).
	Nodes []cf.Node
}

// Status is a point-in-time view of the CFRM state machine.
type Status struct {
	Primary    string
	Secondary  string // "" when simplex
	State      string // "duplexed", "syncing", or "simplex"
	Failovers  int64
	Retried    int64 // commands transparently retried across a failover
	Reduplexes int64
	Rebuilds   int64
	Failed     []string // facilities lost to failures, in name order
}

// Manager owns the CF fleet and drives the duplexing state machine.
type Manager struct {
	policy Policy
	clock  vclock.Clock
	reg    *metrics.Registry
	front  *cf.Duplexed

	mu          sync.Mutex
	facs        map[string]cf.Node
	used        map[string]bool // names ever assigned (never reused)
	failed      map[string]bool
	next        int // preference-list cursor
	reduplexing bool
	rebuilding  bool
	rebuilds    int64
}

// New builds the manager, brings up the primary (and, in duplexed mode,
// the secondary) from the policy's preference list, and returns it.
func New(policy Policy, clock vclock.Clock) (*Manager, error) {
	if clock == nil {
		clock = vclock.Real()
	}
	if len(policy.Candidates) == 0 {
		policy.Candidates = []string{"CF01", "CF02", "CF03"}
	}
	seen := make(map[string]bool, len(policy.Candidates))
	for _, n := range policy.Candidates {
		if n == "" || seen[n] {
			return nil, fmt.Errorf("cfrm: bad candidate list %v", policy.Candidates)
		}
		seen[n] = true
	}
	m := &Manager{
		policy: policy,
		clock:  clock,
		reg:    metrics.NewRegistry(),
		facs:   make(map[string]cf.Node),
		used:   make(map[string]bool),
		failed: make(map[string]bool),
	}
	pri := m.freshNodeLocked()
	if pri == nil {
		return nil, errors.New("cfrm: policy has no usable node")
	}
	// sec stays a cf.Node (never a concrete pointer type): assigning a
	// nil *Facility here would hand NewDuplexed a non-nil interface
	// wrapping a nil pointer and the front would try to duplex into it.
	var sec cf.Node
	if policy.Mode == ModeDuplexed {
		sec = m.freshNodeLocked()
	}
	m.front = cf.NewDuplexed(clock, m.reg, pri, sec)
	m.front.OnEvent(m.handleEvent)
	if sec != nil {
		m.reg.Gauge("cfrm.duplexed").Set(1)
	}
	return m, nil
}

// freshNodeLocked returns the next CF node in preference order. With an
// explicit Policy.Nodes fleet it hands out those nodes until they run
// out, then returns nil — the fleet is finite. Otherwise it creates the
// next in-process facility from the preference list (generating names
// past its end), applying the policy's storage bound. Caller holds
// m.mu, or has exclusive access during New.
func (m *Manager) freshNodeLocked() cf.Node {
	if len(m.policy.Nodes) > 0 {
		for m.next < len(m.policy.Nodes) {
			n := m.policy.Nodes[m.next]
			m.next++
			if n == nil || m.used[n.Name()] {
				continue
			}
			m.used[n.Name()] = true
			m.facs[n.Name()] = n
			return n
		}
		return nil
	}
	for {
		var name string
		if m.next < len(m.policy.Candidates) {
			name = m.policy.Candidates[m.next]
		} else {
			name = fmt.Sprintf("CF%02d", m.next+1)
		}
		m.next++
		if m.used[name] {
			continue
		}
		m.used[name] = true
		f := cf.NewWithStorage(name, m.clock, m.policy.Storage)
		m.facs[name] = f
		return f
	}
}

// Front returns the facility-shaped command front every structure is
// allocated through.
func (m *Manager) Front() *cf.Duplexed { return m.front }

// Primary returns the current primary CF node.
func (m *Manager) Primary() cf.Node { return m.front.Primary() }

// Secondary returns the current secondary CF node (nil when simplex).
func (m *Manager) Secondary() cf.Node { return m.front.Secondary() }

// Metrics exposes the CFRM instrumentation (shared with the front):
// cfrm.failover.count, cfrm.cmd.retried, cfrm.duplex.fanout,
// cfrm.duplex.broken, cfrm.reduplex.count, cfrm.reduplex.duration,
// cfrm.rebuild.count, and the cfrm.duplexed gauge.
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Policy returns the manager's (defaulted) policy.
func (m *Manager) Policy() Policy { return m.policy }

// Facility returns a managed CF node by name (nil if unknown), for
// tests and failure injection.
func (m *Manager) Facility(name string) cf.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.facs[name]
}

// Status reports the state machine's current shape and counters.
func (m *Manager) Status() Status {
	st := Status{
		Primary:    m.front.Primary().Name(),
		State:      m.front.State(),
		Failovers:  m.reg.Counter("cfrm.failover.count").Value(),
		Retried:    m.reg.Counter("cfrm.cmd.retried").Value(),
		Reduplexes: m.reg.Counter("cfrm.reduplex.count").Value(),
	}
	if sec := m.front.Secondary(); sec != nil {
		st.Secondary = sec.Name()
	}
	m.mu.Lock()
	st.Rebuilds = m.rebuilds
	for n := range m.failed {
		st.Failed = append(st.Failed, n)
	}
	m.mu.Unlock()
	sort.Strings(st.Failed)
	return st
}

// handleEvent reacts to duplexing transitions reported by the front.
// It runs on the failing command's goroutine, so recovery work is
// dispatched asynchronously.
func (m *Manager) handleEvent(e cf.DuplexEvent) {
	switch e.Kind {
	case cf.EventFailover, cf.EventDuplexBroken:
		m.mu.Lock()
		m.failed[e.Facility] = true
		m.mu.Unlock()
		m.reg.Gauge("cfrm.duplexed").Set(0)
		go m.ensureDuplexed()
	case cf.EventDuplexEstablished:
		m.reg.Gauge("cfrm.duplexed").Set(1)
	}
}

// ReportFailure tells CFRM a facility is unhealthy (the XCF-side CF
// health monitor and tests call this). The facility is failed if not
// already, and the state machine reacts: primary → failover, secondary
// → break duplexing; either way a background re-duplex follows.
func (m *Manager) ReportFailure(name string) {
	m.mu.Lock()
	f := m.facs[name]
	alreadyFailed := m.failed[name]
	if f != nil {
		m.failed[name] = true
	}
	m.mu.Unlock()
	if f == nil || alreadyFailed {
		return
	}
	f.Fail()
	switch {
	case m.front.Primary() == f:
		if !m.front.TryFailover() {
			// No synchronized secondary: total CF outage until Rebuild.
			go m.ensureDuplexed() // no-op unless a secondary can be built
		}
	case m.front.Secondary() == f:
		m.front.DropSecondary(f)
	}
}

// ProbeOnce polls the health of the active facilities, routing any
// newly-failed one into ReportFailure. The sysplex's XCF-style status
// monitoring calls this on its failure-detection cadence.
func (m *Manager) ProbeOnce() {
	for _, f := range []cf.Node{m.front.Primary(), m.front.Secondary()} {
		if f != nil && f.Failed() {
			m.ReportFailure(f.Name())
		}
	}
}

// ensureDuplexed re-establishes duplexing into the next healthy
// candidate. It is a no-op in simplex mode, while another establishment
// runs, or when the primary itself is down (that outage needs Rebuild).
func (m *Manager) ensureDuplexed() {
	if m.policy.Mode != ModeDuplexed {
		return
	}
	m.mu.Lock()
	if m.reduplexing {
		m.mu.Unlock()
		return
	}
	m.reduplexing = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.reduplexing = false
		m.mu.Unlock()
	}()
	for attempt := 0; attempt < 4; attempt++ {
		if m.front.Secondary() != nil {
			return
		}
		if pri := m.front.Primary(); pri == nil || pri.Failed() {
			return
		}
		if m.reduplexOnce() == nil {
			return
		}
	}
}

// reduplexOnce tries one establishment into a fresh candidate. With a
// fixed Policy.Nodes fleet the candidates can run out; the error leaves
// the pair simplex on the surviving node.
func (m *Manager) reduplexOnce() error {
	m.mu.Lock()
	target := m.freshNodeLocked()
	m.mu.Unlock()
	if target == nil {
		return errors.New("cfrm: node fleet exhausted, no re-duplex candidate")
	}
	start := m.clock.Now()
	if err := m.front.Reduplex(target); err != nil {
		m.mu.Lock()
		m.failed[target.Name()] = true
		m.mu.Unlock()
		return err
	}
	m.reg.Counter("cfrm.reduplex.count").Inc()
	m.reg.Histogram("cfrm.reduplex.duration").Observe(m.clock.Since(start))
	return nil
}

// Rebuild is the planned structure-rebuild entry point (operator moves
// structures off the current primary, e.g. for CF maintenance). The
// switchover is all-or-nothing: when simplex, the manager first copies
// every structure into a fresh facility — any failure leaves the old
// facility current and intact — and only then switches roles. The
// retired facility is never reused. In duplexed mode the manager then
// synchronously re-duplexes so the sysplex leaves the rebuild with the
// same redundancy it entered with.
func (m *Manager) Rebuild() error {
	m.mu.Lock()
	if m.rebuilding {
		m.mu.Unlock()
		return errors.New("cfrm: rebuild already in progress")
	}
	m.rebuilding = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.rebuilding = false
		m.mu.Unlock()
	}()

	if m.front.Secondary() == nil {
		if err := m.reduplexOnce(); err != nil {
			return err
		}
	}
	old, err := m.front.SwitchPrimary()
	if err != nil {
		return err
	}
	m.reg.Gauge("cfrm.duplexed").Set(0)
	m.mu.Lock()
	m.rebuilds++
	m.mu.Unlock()
	m.reg.Counter("cfrm.rebuild.count").Inc()
	_ = old // retired: stays in m.used so its name is never reallocated
	if m.policy.Mode == ModeDuplexed {
		// Planned rebuilds restore redundancy before returning; a
		// failure here leaves the sysplex simplex but serviceable.
		m.ensureDuplexed()
	}
	return nil
}

// WaitDuplexed blocks until the pair is duplexed (synchronized
// secondary installed) or the timeout elapses. Test helper for the
// background re-duplex that follows failovers.
func (m *Manager) WaitDuplexed(timeout time.Duration) error {
	deadline := m.clock.Now().Add(timeout)
	for {
		if m.front.State() == "duplexed" {
			return nil
		}
		if !m.clock.Now().Before(deadline) {
			return fmt.Errorf("cfrm: not duplexed after %v (state %s)", timeout, m.front.State())
		}
		m.clock.Sleep(time.Millisecond)
	}
}
