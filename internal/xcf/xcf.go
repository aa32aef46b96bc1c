// Package xcf emulates the base MVS multi-system services of §3.2
// (the Cross-system Coupling Facility): sysplex membership, group
// services (join/leave/signal/notify), inter-system signalling, shared
// system-status state in the couple data set, and processor heartbeat
// monitoring with automatic fail-stop — a sick system is partitioned
// out, terminated, and disconnected from its I/O devices (fenced) so
// surviving components can rely on fail-stop semantics.
package xcf

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sysplex/internal/cds"
	"sysplex/internal/dasd"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
)

// Errors returned by XCF services.
var (
	ErrSystemExists  = errors.New("xcf: system name already in sysplex")
	ErrSystemDown    = errors.New("xcf: target system not active")
	ErrNotActive     = errors.New("xcf: system is not active")
	ErrNoSuchMember  = errors.New("xcf: no such group member")
	ErrMemberExists  = errors.New("xcf: member name already in group")
	ErrSysplexFull   = errors.New("xcf: sysplex is at its 32-system limit")
	ErrNoSuchService = errors.New("xcf: no handler bound for service")
)

// MaxSystems is the initial Parallel Sysplex limit (§1: "a
// configuration of 32 systems (initially)").
const MaxSystems = 32

// SystemState is the life-cycle state of a sysplex member system.
type SystemState int

// System states.
const (
	StateActive SystemState = iota + 1
	StateLeft               // planned removal (reconfiguration, upgrade)
	StateFailed             // partitioned out by status monitoring
)

// String names the state.
func (s SystemState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateLeft:
		return "left"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Options configure sysplex timing.
type Options struct {
	// HeartbeatInterval between status updates (default 25ms).
	HeartbeatInterval time.Duration
	// FailureDetectionInterval after which a silent system is declared
	// failed (default 4x heartbeat).
	FailureDetectionInterval time.Duration
}

// MemberID names a group member instance.
type MemberID struct {
	Group  string
	Member string
	System string
}

// String renders "group/member@system".
func (m MemberID) String() string {
	return m.Group + "/" + m.Member + "@" + m.System
}

// Event is a group membership notification.
type Event struct {
	Kind   EventKind
	Member MemberID
}

// EventKind discriminates group events.
type EventKind int

// Group event kinds.
const (
	MemberJoined EventKind = iota + 1
	MemberLeft
	MemberFailed // member's system was partitioned out
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case MemberJoined:
		return "joined"
	case MemberLeft:
		return "left"
	case MemberFailed:
		return "failed"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// GroupCallbacks receive group notifications. Callbacks run on the
// member's system dispatcher goroutine; they must not block
// indefinitely. Any callback may be nil.
type GroupCallbacks struct {
	OnEvent   func(Event)
	OnMessage func(from MemberID, payload []byte)
}

// Sysplex is the shared coupling context all systems join.
type Sysplex struct {
	name  string
	clock vclock.Clock
	store *cds.Store
	farm  *dasd.Farm
	opts  Options
	reg   *metrics.Registry

	mu       sync.Mutex
	systems  map[string]*System
	states   map[string]SystemState
	groups   map[string]map[string]*Member // group -> member name -> member
	onFailed []func(sys string)
}

// NewSysplex creates the sysplex context. The couple data set store
// holds system status; farm is fenced on system failure (may be nil in
// unit tests).
func NewSysplex(name string, clock vclock.Clock, store *cds.Store, farm *dasd.Farm, opts Options) *Sysplex {
	if clock == nil {
		clock = vclock.Real()
	}
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 25 * time.Millisecond
	}
	if opts.FailureDetectionInterval == 0 {
		opts.FailureDetectionInterval = 4 * opts.HeartbeatInterval
	}
	return &Sysplex{
		name:    name,
		clock:   clock,
		store:   store,
		farm:    farm,
		opts:    opts,
		reg:     metrics.NewRegistry(),
		systems: make(map[string]*System),
		states:  make(map[string]SystemState),
		groups:  make(map[string]map[string]*Member),
	}
}

// Name returns the sysplex name.
func (p *Sysplex) Name() string { return p.name }

// Metrics exposes XCF instrumentation.
func (p *Sysplex) Metrics() *metrics.Registry { return p.reg }

// Options returns the timing configuration.
func (p *Sysplex) Options() Options { return p.opts }

// OnSystemFailed registers a callback invoked (on the monitor's
// goroutine) whenever a system is partitioned out. ARM wires restart
// processing here.
func (p *Sysplex) OnSystemFailed(fn func(sys string)) {
	p.mu.Lock()
	p.onFailed = append(p.onFailed, fn)
	p.mu.Unlock()
}

// ActiveSystems lists currently active systems, sorted.
func (p *Sysplex) ActiveSystems() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for s, st := range p.states {
		if st == StateActive {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// State returns the state of a system (0 if unknown).
func (p *Sysplex) State(sys string) SystemState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.states[sys]
}

// IsFailed reports whether sys was partitioned out; it is the
// StaleHolder predicate couple data sets use to break dead reserves.
func (p *Sysplex) IsFailed(sys string) bool {
	return p.State(sys) == StateFailed
}

// Join adds a system to the sysplex, writes its status to the couple
// data set, and starts its message dispatcher. New systems can join a
// running sysplex non-disruptively (§2.4).
func (p *Sysplex) Join(name string) (*System, error) {
	p.mu.Lock()
	if _, ok := p.systems[name]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSystemExists, name)
	}
	active := 0
	for _, st := range p.states {
		if st == StateActive {
			active++
		}
	}
	if active >= MaxSystems {
		p.mu.Unlock()
		return nil, ErrSysplexFull
	}
	s := &System{
		plex:     p,
		name:     name,
		inbox:    make(chan envelope, 1024),
		stop:     make(chan struct{}),
		handlers: make(map[string]func(from string, payload []byte)),
	}
	p.systems[name] = s
	p.states[name] = StateActive
	p.mu.Unlock()

	if p.farm != nil {
		p.farm.UnfenceSystem(name) // re-IPL after an earlier failure
	}
	if err := s.Heartbeat(); err != nil {
		return nil, fmt.Errorf("xcf: initial status update: %v", err)
	}
	go s.dispatch()
	p.reg.Counter("xcf.join").Inc()
	return s, nil
}

// System returns a joined system by name (nil if unknown or gone).
func (p *Sysplex) System(name string) *System {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.systems[name]
}

// GroupMembers lists the members of a group, sorted by member name.
func (p *Sysplex) GroupMembers(group string) []MemberID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.groupMembersLocked(group)
}

func (p *Sysplex) groupMembersLocked(group string) []MemberID {
	g := p.groups[group]
	out := make([]MemberID, 0, len(g))
	for _, m := range g {
		out = append(out, m.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}

// MonitorOnce performs one status-monitor pass from the perspective of
// monitor (any active system): every active system whose couple data
// set heartbeat is older than the failure detection interval is
// partitioned out of the sysplex. Returns the systems partitioned.
//
// Production use drives this from a ticker (see StartBackground);
// deterministic tests call it directly.
func (p *Sysplex) MonitorOnce(monitor string) ([]string, error) {
	if p.store == nil {
		return nil, nil
	}
	if p.State(monitor) != StateActive {
		return nil, fmt.Errorf("%w: %q", ErrNotActive, monitor)
	}
	now := p.clock.Now()
	var stale []string
	err := p.store.Update(monitor, func(v *cds.View) error {
		stale = stale[:0]
		for _, sys := range p.ActiveSystems() {
			if sys == monitor {
				continue
			}
			raw, ok, err := v.Get(statusKey(sys))
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			ts, state := parseStatus(raw)
			if state != "active" {
				continue
			}
			if now.Sub(ts) > p.opts.FailureDetectionInterval {
				stale = append(stale, sys)
				v.Set(statusKey(sys), encodeStatus(now, "failed"))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sys := range stale {
		p.partition(sys)
	}
	return stale, nil
}

// partition performs fail-stop isolation of a system: I/O fencing,
// state transition, group member-failed events, and failure callbacks.
func (p *Sysplex) partition(sys string) {
	p.mu.Lock()
	if p.states[sys] != StateActive {
		p.mu.Unlock()
		return
	}
	p.states[sys] = StateFailed
	target := p.systems[sys]
	delete(p.systems, sys)
	var failed []*Member
	for _, g := range p.groups {
		for _, m := range g {
			if m.id.System == sys {
				failed = append(failed, m)
			}
		}
	}
	for _, m := range failed {
		delete(p.groups[m.id.Group], m.id.Member)
	}
	p.mu.Unlock()

	// Terminate the sick system and disconnect it from I/O.
	if target != nil {
		target.terminate()
	}
	if p.farm != nil {
		p.farm.FenceSystem(sys)
	}
	p.reg.Counter("xcf.partition").Inc()

	for _, m := range failed {
		p.notifyGroup(m.id.Group, Event{Kind: MemberFailed, Member: m.id})
	}
	p.mu.Lock()
	cbs := append([]func(string){}, p.onFailed...)
	p.mu.Unlock()
	for _, cb := range cbs {
		cb(sys)
	}
}

// PartitionNow forces immediate partition of a system (operator VARY
// XCF,sys,OFFLINE or SFM policy action). Used by tests and by failure
// injection.
func (p *Sysplex) PartitionNow(sys string) {
	if p.store != nil {
		// Best effort status update; the in-memory state is authoritative
		// for liveness.
		mon := ""
		for _, s := range p.ActiveSystems() {
			if s != sys {
				mon = s
				break
			}
		}
		if mon != "" {
			p.store.Update(mon, func(v *cds.View) error {
				return v.Set(statusKey(sys), encodeStatus(p.clock.Now(), "failed"))
			})
		}
	}
	p.partition(sys)
}

// notifyGroup fans an event to all current members of a group except
// the event's subject (a member is not told about its own join/leave).
func (p *Sysplex) notifyGroup(group string, ev Event) {
	p.mu.Lock()
	members := make([]*Member, 0, len(p.groups[group]))
	for _, m := range p.groups[group] {
		if m.id != ev.Member {
			members = append(members, m)
		}
	}
	p.mu.Unlock()
	for _, m := range members {
		m.deliverEvent(ev)
	}
}

// System is one MVS image joined to the sysplex.
type System struct {
	plex *Sysplex
	name string

	inbox chan envelope
	stop  chan struct{}

	mu       sync.Mutex
	stopped  bool
	handlers map[string]func(from string, payload []byte)
}

type envelope struct {
	from    string
	service string
	member  *Member // non-nil for group messages
	mid     MemberID
	event   *Event
	payload []byte
}

// Name returns the system name.
func (s *System) Name() string { return s.name }

// Heartbeat writes the system's status record to the couple data set.
// Production drives this from a ticker; tests call it directly.
func (s *System) Heartbeat() error {
	if s.plex.store == nil {
		return nil
	}
	if s.plex.State(s.name) != StateActive {
		return fmt.Errorf("%w: %q", ErrNotActive, s.name)
	}
	return s.plex.store.Update(s.name, func(v *cds.View) error {
		return v.Set(statusKey(s.name), encodeStatus(s.plex.clock.Now(), "active"))
	})
}

// StartBackground launches the heartbeat and monitor loops, returning
// a stop function. The loops run on separate goroutines so a monitor
// pass waiting on couple-data-set serialization can never starve this
// system's own heartbeat (which would look like a failure to peers).
func (s *System) StartBackground() (stop func()) {
	hb := s.plex.clock.NewTicker(s.plex.opts.HeartbeatInterval)
	mon := s.plex.clock.NewTicker(s.plex.opts.FailureDetectionInterval / 2)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-hb.C():
				s.Heartbeat()
			}
		}
	}()
	go func() {
		for {
			select {
			case <-done:
				return
			case <-mon.C():
				s.plex.MonitorOnce(s.name)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			hb.Stop()
			mon.Stop()
			close(done)
		})
	}
}

// BindService registers a handler for point-to-point system messages
// addressed to the named service.
func (s *System) BindService(service string, fn func(from string, payload []byte)) {
	s.mu.Lock()
	s.handlers[service] = fn
	s.mu.Unlock()
}

// Send delivers a payload to the named service on another system over
// the signalling paths. Delivery is asynchronous and ordered per
// sender; sending to a failed system returns ErrSystemDown.
func (s *System) Send(toSystem, service string, payload []byte) error {
	target := s.plex.System(toSystem)
	if target == nil || s.plex.State(toSystem) != StateActive {
		return fmt.Errorf("%w: %q", ErrSystemDown, toSystem)
	}
	cp := append([]byte(nil), payload...)
	target.enqueue(envelope{from: s.name, service: service, payload: cp})
	s.plex.reg.Counter("xcf.msg").Inc()
	return nil
}

// Leave removes the system from the sysplex in a planned, orderly way:
// group members leave with MemberLeft events and status becomes "left".
// No fencing occurs.
func (s *System) Leave() {
	p := s.plex
	p.mu.Lock()
	if p.states[s.name] != StateActive {
		p.mu.Unlock()
		return
	}
	p.states[s.name] = StateLeft
	delete(p.systems, s.name)
	var leaving []*Member
	for _, g := range p.groups {
		for _, m := range g {
			if m.id.System == s.name {
				leaving = append(leaving, m)
			}
		}
	}
	for _, m := range leaving {
		delete(p.groups[m.id.Group], m.id.Member)
	}
	p.mu.Unlock()

	if p.store != nil {
		p.store.Update(s.name, func(v *cds.View) error {
			return v.Set(statusKey(s.name), encodeStatus(p.clock.Now(), "left"))
		})
	}
	s.terminate()
	for _, m := range leaving {
		p.notifyGroup(m.id.Group, Event{Kind: MemberLeft, Member: m.id})
	}
	p.reg.Counter("xcf.leave").Inc()
}

// Kill simulates abrupt system failure: the system stops heartbeating
// and processing work without any notification. Status monitoring on
// the surviving systems will detect and partition it.
func (s *System) Kill() {
	s.terminate()
}

func (s *System) terminate() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	s.mu.Unlock()
}

func (s *System) enqueue(env envelope) {
	select {
	case s.inbox <- env:
	case <-s.stop:
	}
}

// dispatch runs handler callbacks for inbound messages and events.
func (s *System) dispatch() {
	for {
		select {
		case <-s.stop:
			return
		case env := <-s.inbox:
			s.handle(env)
		}
	}
}

func (s *System) handle(env envelope) {
	if env.member != nil {
		if env.event != nil {
			if env.member.cb.OnEvent != nil {
				env.member.cb.OnEvent(*env.event)
			}
			return
		}
		if env.member.cb.OnMessage != nil {
			env.member.cb.OnMessage(env.mid, env.payload)
		}
		return
	}
	s.mu.Lock()
	fn := s.handlers[env.service]
	s.mu.Unlock()
	if fn != nil {
		fn(env.from, env.payload)
	}
}

// JoinGroup creates a member of the named group on this system. Other
// members are notified with MemberJoined.
func (s *System) JoinGroup(group, member string, cb GroupCallbacks) (*Member, error) {
	p := s.plex
	p.mu.Lock()
	if p.states[s.name] != StateActive {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotActive, s.name)
	}
	g := p.groups[group]
	if g == nil {
		g = make(map[string]*Member)
		p.groups[group] = g
	}
	if _, ok := g[member]; ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrMemberExists, group, member)
	}
	m := &Member{sys: s, id: MemberID{Group: group, Member: member, System: s.name}, cb: cb}
	g[member] = m
	p.mu.Unlock()

	if p.store != nil {
		p.store.Update(s.name, func(v *cds.View) error {
			return v.Set(memberKey(group, member), []byte(s.name))
		})
	}
	p.notifyGroup(group, Event{Kind: MemberJoined, Member: m.id})
	p.reg.Counter("xcf.group.join").Inc()
	return m, nil
}

// Member is a group member instance on one system.
type Member struct {
	sys *System
	id  MemberID
	cb  GroupCallbacks

	mu   sync.Mutex
	left bool
}

// ID returns the member identity.
func (m *Member) ID() MemberID { return m.id }

// Members lists the group's current members.
func (m *Member) Members() []MemberID {
	return m.sys.plex.GroupMembers(m.id.Group)
}

// Leave removes the member from its group with a MemberLeft event.
func (m *Member) Leave() {
	p := m.sys.plex
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return
	}
	m.left = true
	m.mu.Unlock()
	p.mu.Lock()
	delete(p.groups[m.id.Group], m.id.Member)
	p.mu.Unlock()
	if p.store != nil {
		p.store.Update(m.id.System, func(v *cds.View) error {
			v.Delete(memberKey(m.id.Group, m.id.Member))
			return nil
		})
	}
	p.notifyGroup(m.id.Group, Event{Kind: MemberLeft, Member: m.id})
}

// Send delivers a payload to a named member of the same group.
func (m *Member) Send(toMember string, payload []byte) error {
	p := m.sys.plex
	p.mu.Lock()
	target := p.groups[m.id.Group][toMember]
	p.mu.Unlock()
	if target == nil {
		return fmt.Errorf("%w: %s/%s", ErrNoSuchMember, m.id.Group, toMember)
	}
	cp := append([]byte(nil), payload...)
	target.sys.enqueue(envelope{member: target, mid: m.id, payload: cp})
	p.reg.Counter("xcf.group.msg").Inc()
	return nil
}

// Broadcast sends a payload to every other member of the group.
func (m *Member) Broadcast(payload []byte) int {
	p := m.sys.plex
	p.mu.Lock()
	targets := make([]*Member, 0, len(p.groups[m.id.Group]))
	for _, t := range p.groups[m.id.Group] {
		if t != m {
			targets = append(targets, t)
		}
	}
	p.mu.Unlock()
	for _, t := range targets {
		cp := append([]byte(nil), payload...)
		t.sys.enqueue(envelope{member: t, mid: m.id, payload: cp})
	}
	p.reg.Counter("xcf.group.msg").Add(int64(len(targets)))
	return len(targets)
}

func (m *Member) deliverEvent(ev Event) {
	evCopy := ev
	m.sys.enqueue(envelope{member: m, event: &evCopy})
}

func statusKey(sys string) string { return "xcf.status." + sys }

func memberKey(group, member string) string {
	return "xcf.group." + group + "." + member
}

func encodeStatus(t time.Time, state string) []byte {
	return []byte(state + " " + strconv.FormatInt(t.UnixNano(), 10))
}

func parseStatus(raw []byte) (time.Time, string) {
	parts := strings.SplitN(string(raw), " ", 2)
	if len(parts) != 2 {
		return time.Time{}, ""
	}
	ns, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return time.Time{}, ""
	}
	return time.Unix(0, ns), parts[0]
}
