// Package wlm implements a Workload Manager in the spirit of the MVS
// WLM component (§2.1, §5.1): policy-driven, goal-oriented resource
// management plus the sysplex-wide state exchange that underpins
// dynamic workload balancing. Each system runs a Manager; managers
// periodically exchange capacity and utilization over an XCF group, and
// routing services (VTAM generic resources, CICS dynamic routing) ask
// any manager for a target-system recommendation.
package wlm

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

// GroupName is the XCF group WLM instances join.
const GroupName = "SYSWLM"

// ErrNoSystems is returned when no candidate system is available.
var ErrNoSystems = errors.New("wlm: no active systems to route to")

// Goal is a service-class goal. Exactly one of AvgResponse or Velocity
// should be set.
type Goal struct {
	Class       string
	Importance  int           // 1 (highest) .. 5
	AvgResponse time.Duration // average response time goal
	Velocity    float64       // execution velocity goal in (0,1]
}

// Policy is the sysplex-wide service definition.
type Policy struct {
	Name  string
	Goals []Goal
}

// goal returns the goal for a class (zero Goal if undefined).
func (p Policy) goal(class string) (Goal, bool) {
	for _, g := range p.Goals {
		if g.Class == class {
			return g, true
		}
	}
	return Goal{}, false
}

// PeerState is one system's view of another's load.
type PeerState struct {
	System       string  `json:"system"`
	CapacityMIPS float64 `json:"capacity"`
	Utilization  float64 `json:"utilization"`
	Sequence     int64   `json:"seq"`
}

// ClassPerf summarizes a service class over the last completed interval.
type ClassPerf struct {
	Class        string
	Completions  int64
	MeanResponse time.Duration
	// Velocity is the execution-velocity sample: the fraction of
	// response time spent using the processor (service/response).
	Velocity float64
	// PerformanceIndex is actual/goal for response goals, or
	// goal/actual for velocity goals; in both cases >1 means the class
	// is missing its goal.
	PerformanceIndex float64
}

// Manager is one system's WLM instance.
type Manager struct {
	sys    string
	clock  vclock.Clock
	policy Policy
	member *xcf.Member

	mu         sync.Mutex
	capacity   float64 // MIPS
	inInterval struct {
		service   float64 // MIPS-seconds consumed
		byClass   map[string]*classAccum
		startedAt time.Time
	}
	lastUtil  float64
	lastPerf  map[string]ClassPerf
	peers     map[string]PeerState
	seq       int64
	rrCounter int

	// advice is the routing advice for the state above, republished
	// under mu by every change to it and read without a lock.
	advice atomic.Pointer[advice]
}

// advice is one published routing snapshot. Its maps are shared with
// every caller and never modified.
type advice struct {
	avail   map[string]float64 // spare MIPS by system
	weights map[string]float64 // avail normalized to sum 1
}

type classAccum struct {
	completions int64
	totalResp   time.Duration
	totalSvcSec float64 // processor seconds (MIPS-sec / capacity)
}

// New creates the WLM instance for a system with the given processor
// capacity (MIPS) and joins the WLM exchange group.
func New(system *xcf.System, capacityMIPS float64, policy Policy, clock vclock.Clock) (*Manager, error) {
	if clock == nil {
		clock = vclock.Real()
	}
	if capacityMIPS <= 0 {
		return nil, fmt.Errorf("wlm: capacity must be positive")
	}
	m := &Manager{
		sys:      system.Name(),
		clock:    clock,
		policy:   policy,
		capacity: capacityMIPS,
		peers:    make(map[string]PeerState),
		lastPerf: make(map[string]ClassPerf),
	}
	m.resetIntervalLocked()
	m.publishLocked()
	member, err := system.JoinGroup(GroupName, system.Name(), xcf.GroupCallbacks{
		OnMessage: m.onPeerState,
		OnEvent:   m.onEvent,
	})
	if err != nil {
		return nil, err
	}
	m.member = member
	return m, nil
}

// System returns the owning system name.
func (m *Manager) System() string { return m.sys }

// Capacity returns the configured MIPS capacity.
func (m *Manager) Capacity() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity
}

// Policy returns the active service definition.
func (m *Manager) Policy() Policy {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.policy
}

// SetPolicy installs a new service definition (policy activation).
func (m *Manager) SetPolicy(p Policy) {
	m.mu.Lock()
	m.policy = p
	m.mu.Unlock()
}

// ReportWork records a completed work unit of a service class: its
// response time and the processor service it consumed (MIPS-seconds).
func (m *Manager) ReportWork(class string, response time.Duration, serviceMIPSsec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	acc := m.inInterval.byClass[class]
	if acc == nil {
		acc = &classAccum{}
		m.inInterval.byClass[class] = acc
	}
	acc.completions++
	acc.totalResp += response
	if serviceMIPSsec > 0 {
		m.inInterval.service += serviceMIPSsec
		if m.capacity > 0 {
			acc.totalSvcSec += serviceMIPSsec / m.capacity
		}
	}
}

// EndInterval closes the current measurement interval: utilization and
// per-class performance indexes are computed and become the values
// reported to peers until the next interval ends.
func (m *Manager) EndInterval() {
	m.mu.Lock()
	defer m.mu.Unlock()
	elapsed := m.clock.Now().Sub(m.inInterval.startedAt).Seconds()
	if elapsed > 0 {
		util := m.inInterval.service / (m.capacity * elapsed)
		if util > 1 {
			util = 1
		}
		if util < 0 {
			util = 0
		}
		m.lastUtil = util
	}
	perf := make(map[string]ClassPerf, len(m.inInterval.byClass))
	for class, acc := range m.inInterval.byClass {
		cp := ClassPerf{Class: class, Completions: acc.completions}
		if acc.completions > 0 {
			cp.MeanResponse = acc.totalResp / time.Duration(acc.completions)
		}
		if acc.totalResp > 0 {
			cp.Velocity = acc.totalSvcSec / acc.totalResp.Seconds()
			if cp.Velocity > 1 {
				cp.Velocity = 1
			}
		}
		if g, ok := m.policy.goal(class); ok {
			switch {
			case g.AvgResponse > 0 && cp.MeanResponse > 0:
				cp.PerformanceIndex = float64(cp.MeanResponse) / float64(g.AvgResponse)
			case g.Velocity > 0 && cp.Velocity > 0:
				cp.PerformanceIndex = g.Velocity / cp.Velocity
			}
		}
		perf[class] = cp
	}
	m.lastPerf = perf
	m.resetIntervalLocked()
	m.publishLocked()
}

func (m *Manager) resetIntervalLocked() {
	m.inInterval.service = 0
	m.inInterval.byClass = make(map[string]*classAccum)
	m.inInterval.startedAt = m.clock.Now()
}

// Utilization returns the last completed interval's CPU utilization.
func (m *Manager) Utilization() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastUtil
}

// SetUtilization overrides the reported utilization (tests, and the
// DES-driven experiments that compute utilization externally).
func (m *Manager) SetUtilization(u float64) {
	m.mu.Lock()
	m.lastUtil = u
	m.publishLocked()
	m.mu.Unlock()
}

// ClassPerformance returns the last interval's stats for a class.
func (m *Manager) ClassPerformance(class string) (ClassPerf, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp, ok := m.lastPerf[class]
	return cp, ok
}

// ExchangeOnce ends the local interval and broadcasts this system's
// state to all WLM peers. Production drives this from a ticker.
func (m *Manager) ExchangeOnce() {
	m.EndInterval()
	m.mu.Lock()
	m.seq++
	st := PeerState{System: m.sys, CapacityMIPS: m.capacity, Utilization: m.lastUtil, Sequence: m.seq}
	m.peers[m.sys] = st
	m.publishLocked()
	m.mu.Unlock()
	raw, err := json.Marshal(st)
	if err != nil {
		return
	}
	m.member.Broadcast(raw)
}

// IngestPeer injects a peer state directly, bypassing the XCF exchange.
// Used by tests and by DES-driven experiments where utilization comes
// from the simulator rather than live measurement.
func (m *Manager) IngestPeer(st PeerState) {
	m.mu.Lock()
	m.peers[st.System] = st
	m.publishLocked()
	m.mu.Unlock()
}

// onPeerState ingests a peer broadcast.
func (m *Manager) onPeerState(from xcf.MemberID, payload []byte) {
	var st PeerState
	if err := json.Unmarshal(payload, &st); err != nil {
		return
	}
	m.mu.Lock()
	if cur, ok := m.peers[st.System]; !ok || st.Sequence >= cur.Sequence {
		m.peers[st.System] = st
		m.publishLocked()
	}
	m.mu.Unlock()
}

// onEvent prunes failed or departed peers.
func (m *Manager) onEvent(ev xcf.Event) {
	if ev.Kind == xcf.MemberFailed || ev.Kind == xcf.MemberLeft {
		m.mu.Lock()
		delete(m.peers, ev.Member.System)
		m.publishLocked()
		m.mu.Unlock()
	}
}

// Peers returns the known sysplex-wide state, including this system.
func (m *Manager) Peers() []PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.peersLocked()
	sort.Slice(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out
}

func (m *Manager) peersLocked() []PeerState {
	out := make([]PeerState, 0, len(m.peers)+1)
	for _, p := range m.peers {
		out = append(out, p)
	}
	if _, ok := m.peers[m.sys]; !ok {
		out = append(out, PeerState{System: m.sys, CapacityMIPS: m.capacity, Utilization: m.lastUtil})
	}
	return out
}

// publishLocked recomputes the routing advice from the current state.
// Every change to the peers or to this system's utilization calls it
// before releasing mu, so a reader never sees advice older than the
// last change that returned.
func (m *Manager) publishLocked() {
	peers := m.peersLocked()
	avail := make(map[string]float64, len(peers))
	total := 0.0
	for _, p := range peers {
		a := max(p.CapacityMIPS*(1-p.Utilization), 0)
		avail[p.System] = a
		total += a
	}
	weights := make(map[string]float64, len(avail))
	for n, a := range avail {
		if total <= 0 {
			weights[n] = 1 / float64(len(avail))
		} else {
			weights[n] = a / total
		}
	}
	m.advice.Store(&advice{avail: avail, weights: weights})
}

// AvailableCapacity returns each system's spare MIPS. The map is shared
// advice: callers must not modify it.
func (m *Manager) AvailableCapacity() map[string]float64 { return m.advice.Load().avail }

// SelectSystem returns the routing recommendation: the system with the
// most available capacity. Near-ties (within 5%) rotate round-robin so
// equally loaded systems share new work.
func (m *Manager) SelectSystem() (string, error) {
	avail := m.AvailableCapacity()
	if len(avail) == 0 {
		return "", ErrNoSystems
	}
	names := make([]string, 0, len(avail))
	for n := range avail {
		names = append(names, n)
	}
	sort.Strings(names)
	best := names[0]
	for _, n := range names[1:] {
		if avail[n] > avail[best] {
			best = n
		}
	}
	// Collect near-ties.
	var ties []string
	for _, n := range names {
		if avail[best] <= 0 {
			ties = append(ties, n)
		} else if avail[n] >= 0.95*avail[best] {
			ties = append(ties, n)
		}
	}
	if len(ties) == 0 {
		ties = []string{best}
	}
	m.mu.Lock()
	m.rrCounter++
	pick := ties[m.rrCounter%len(ties)]
	m.mu.Unlock()
	return pick, nil
}

// RouteWeights returns normalized routing weights proportional to
// available capacity (uniform if the sysplex is saturated). The map is
// shared advice: callers must not modify it.
func (m *Manager) RouteWeights() map[string]float64 { return m.advice.Load().weights }
