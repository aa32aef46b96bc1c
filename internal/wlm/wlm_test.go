package wlm

import (
	"errors"
	"math"
	"testing"
	"time"

	"sysplex/internal/vclock"
	"sysplex/internal/xcf"
)

var t0 = time.Date(1996, 4, 15, 0, 0, 0, 0, time.UTC)

type fixture struct {
	plex  *xcf.Sysplex
	clock *vclock.Fake
	mgrs  map[string]*Manager
}

func newFixture(t *testing.T, caps map[string]float64) *fixture {
	t.Helper()
	clock := vclock.NewFake(t0)
	plex := xcf.NewSysplex("PLEX1", clock, nil, nil, xcf.Options{})
	fx := &fixture{plex: plex, clock: clock, mgrs: map[string]*Manager{}}
	policy := Policy{Name: "STD", Goals: []Goal{
		{Class: "ONLINE", Importance: 1, AvgResponse: 100 * time.Millisecond},
		{Class: "BATCH", Importance: 3, Velocity: 0.3},
	}}
	names := make([]string, 0, len(caps))
	for n := range caps {
		names = append(names, n)
	}
	// Deterministic join order.
	for _, n := range []string{"SYS1", "SYS2", "SYS3", "SYS4"} {
		cap, ok := caps[n]
		if !ok {
			continue
		}
		sys, err := plex.Join(n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(sys, cap, policy, clock)
		if err != nil {
			t.Fatal(err)
		}
		fx.mgrs[n] = m
	}
	_ = names
	return fx
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestUtilizationFromReportedService(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	// 10 seconds pass; 500 MIPS-seconds consumed on a 100 MIPS box = 50%.
	fx.clock.Advance(10 * time.Second)
	m.ReportWork("ONLINE", 50*time.Millisecond, 500)
	m.EndInterval()
	if u := m.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
	// Utilization is clamped to [0,1].
	fx.clock.Advance(time.Second)
	m.ReportWork("ONLINE", time.Millisecond, 1e9)
	m.EndInterval()
	if u := m.Utilization(); u != 1 {
		t.Fatalf("utilization = %g, want clamped 1", u)
	}
}

func TestPerformanceIndex(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	fx.clock.Advance(time.Second)
	// Mean response 200ms vs 100ms goal → PI = 2 (missing goal).
	m.ReportWork("ONLINE", 150*time.Millisecond, 1)
	m.ReportWork("ONLINE", 250*time.Millisecond, 1)
	m.EndInterval()
	cp, ok := m.ClassPerformance("ONLINE")
	if !ok || cp.Completions != 2 {
		t.Fatalf("perf = %+v ok=%v", cp, ok)
	}
	if math.Abs(cp.PerformanceIndex-2.0) > 1e-9 {
		t.Fatalf("PI = %g, want 2", cp.PerformanceIndex)
	}
	if cp.MeanResponse != 200*time.Millisecond {
		t.Fatalf("mean = %v", cp.MeanResponse)
	}
	// Class without completions: absent.
	if _, ok := m.ClassPerformance("BATCH"); ok {
		t.Fatal("BATCH should have no stats")
	}
}

func TestExchangePropagatesState(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100, "SYS2": 200})
	m1, m2 := fx.mgrs["SYS1"], fx.mgrs["SYS2"]
	fx.clock.Advance(time.Second)
	m1.ReportWork("ONLINE", time.Millisecond, 90) // SYS1 at 90%
	m1.ExchangeOnce()
	m2.ExchangeOnce()
	waitFor(t, "peer state", func() bool {
		for _, p := range m2.Peers() {
			if p.System == "SYS1" && p.Utilization > 0.8 {
				return true
			}
		}
		return false
	})
	peers := m2.Peers()
	if len(peers) != 2 {
		t.Fatalf("peers = %v", peers)
	}
}

func TestSelectSystemPrefersIdle(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100, "SYS2": 100})
	m1, m2 := fx.mgrs["SYS1"], fx.mgrs["SYS2"]
	fx.clock.Advance(time.Second)
	m1.ReportWork("ONLINE", time.Millisecond, 95) // SYS1 busy
	m1.ExchangeOnce()
	m2.ExchangeOnce()
	waitFor(t, "peer state", func() bool {
		if len(m1.Peers()) != 2 {
			return false
		}
		for _, p := range m1.Peers() {
			if p.System == "SYS1" && p.Utilization > 0.9 {
				return true
			}
		}
		return false
	})
	// From both managers' viewpoints, SYS2 is the recommendation.
	for i := 0; i < 5; i++ {
		got, err := m1.SelectSystem()
		if err != nil || got != "SYS2" {
			t.Fatalf("SelectSystem = %q err=%v", got, err)
		}
	}
}

func TestSelectSystemRotatesAmongEquals(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100, "SYS2": 100, "SYS3": 100})
	m := fx.mgrs["SYS1"]
	for _, mgr := range fx.mgrs {
		mgr.ExchangeOnce()
	}
	waitFor(t, "3 peers", func() bool { return len(m.Peers()) == 3 })
	seen := map[string]int{}
	for i := 0; i < 30; i++ {
		s, err := m.SelectSystem()
		if err != nil {
			t.Fatal(err)
		}
		seen[s]++
	}
	if len(seen) != 3 {
		t.Fatalf("distribution = %v, want all three systems used", seen)
	}
}

func TestFailedPeerPruned(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100, "SYS2": 100})
	m1 := fx.mgrs["SYS1"]
	for _, mgr := range fx.mgrs {
		mgr.ExchangeOnce()
	}
	waitFor(t, "2 peers", func() bool { return len(m1.Peers()) == 2 })
	fx.plex.PartitionNow("SYS2")
	waitFor(t, "peer pruned", func() bool { return len(m1.Peers()) == 1 })
	s, err := m1.SelectSystem()
	if err != nil || s != "SYS1" {
		t.Fatalf("SelectSystem = %q err=%v", s, err)
	}
}

func TestRouteWeights(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100, "SYS2": 300})
	m1, m2 := fx.mgrs["SYS1"], fx.mgrs["SYS2"]
	m1.ExchangeOnce()
	m2.ExchangeOnce()
	waitFor(t, "peers", func() bool { return len(m1.Peers()) == 2 })
	w := m1.RouteWeights()
	if math.Abs(w["SYS1"]-0.25) > 1e-9 || math.Abs(w["SYS2"]-0.75) > 1e-9 {
		t.Fatalf("weights = %v", w)
	}
	// Saturated sysplex: uniform weights.
	m1.SetUtilization(1)
	m2.SetUtilization(1)
	m1.ExchangeOnce()
	m2.ExchangeOnce()
	// ExchangeOnce recomputes utilization from the (empty) interval, so
	// force the saturated view directly.
	for _, p := range m1.Peers() {
		p.Utilization = 1
		m1.IngestPeer(p)
	}
	w = m1.RouteWeights()
	if math.Abs(w["SYS1"]-0.5) > 1e-9 || math.Abs(w["SYS2"]-0.5) > 1e-9 {
		t.Fatalf("saturated weights = %v", w)
	}
}

func TestPolicyAccessorsAndValidation(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	if m.Policy().Name != "STD" {
		t.Fatal("policy name")
	}
	m.SetPolicy(Policy{Name: "NEW"})
	if m.Policy().Name != "NEW" {
		t.Fatal("policy not replaced")
	}
	if m.System() != "SYS1" || m.Capacity() != 100 {
		t.Fatal("accessors")
	}
	sys, _ := fx.plex.Join("SYSX")
	if _, err := New(sys, 0, Policy{}, fx.clock); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestSelectSystemSelfOnly(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	s, err := m.SelectSystem()
	if err != nil || s != "SYS1" {
		t.Fatalf("s=%q err=%v", s, err)
	}
	if errors.Is(err, ErrNoSystems) {
		t.Fatal("unexpected ErrNoSystems")
	}
}

func TestVelocityGoalPerformanceIndex(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	fx.clock.Advance(time.Second)
	// BATCH has a velocity goal of 0.3. A job with 100 MIPS-sec of
	// service on a 100 MIPS box used 1s of CPU; with a 4s response its
	// velocity is 0.25 → PI = 0.3/0.25 = 1.2 (missing the goal).
	m.ReportWork("BATCH", 4*time.Second, 100)
	m.EndInterval()
	cp, ok := m.ClassPerformance("BATCH")
	if !ok {
		t.Fatal("no BATCH stats")
	}
	if math.Abs(cp.Velocity-0.25) > 1e-9 {
		t.Fatalf("velocity = %g, want 0.25", cp.Velocity)
	}
	if math.Abs(cp.PerformanceIndex-1.2) > 1e-9 {
		t.Fatalf("PI = %g, want 1.2", cp.PerformanceIndex)
	}
}

func TestVelocityClampedToOne(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	fx.clock.Advance(time.Second)
	// More service than response time (over-reported): clamp.
	m.ReportWork("BATCH", 100*time.Millisecond, 1000)
	m.EndInterval()
	cp, _ := m.ClassPerformance("BATCH")
	if cp.Velocity != 1 {
		t.Fatalf("velocity = %g, want clamped 1", cp.Velocity)
	}
}

// TestAdviceFollowsEveryChange: the routing advice reflects a state
// change as soon as the call making it returns, and advice handed out
// earlier stays as it was.
func TestAdviceFollowsEveryChange(t *testing.T) {
	fx := newFixture(t, map[string]float64{"SYS1": 100})
	m := fx.mgrs["SYS1"]
	if w := m.RouteWeights(); len(w) != 1 || w["SYS1"] != 1 {
		t.Fatalf("lone system weights = %v", w)
	}
	m.IngestPeer(PeerState{System: "SYS2", CapacityMIPS: 300})
	two := m.RouteWeights()
	if math.Abs(two["SYS1"]-0.25) > 1e-9 || math.Abs(two["SYS2"]-0.75) > 1e-9 {
		t.Fatalf("after IngestPeer weights = %v", two)
	}
	m.SetUtilization(0.5)
	if a := m.AvailableCapacity(); a["SYS1"] != 50 || a["SYS2"] != 300 {
		t.Fatalf("after SetUtilization avail = %v", a)
	}
	if w := m.RouteWeights(); math.Abs(w["SYS1"]-50.0/350) > 1e-9 {
		t.Fatalf("after SetUtilization weights = %v", w)
	}
	m.onEvent(xcf.Event{Kind: xcf.MemberFailed, Member: xcf.MemberID{Group: GroupName, Member: "SYS2", System: "SYS2"}})
	if w := m.RouteWeights(); len(w) != 1 || w["SYS1"] != 1 {
		t.Fatalf("after SYS2 failed weights = %v", w)
	}
	if _, ok := m.AvailableCapacity()["SYS2"]; ok {
		t.Fatal("failed system still has spare capacity")
	}
	if math.Abs(two["SYS2"]-0.75) > 1e-9 {
		t.Fatalf("earlier advice changed under its reader: %v", two)
	}
}
