package vtam

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/vclock"
	"sysplex/internal/wire"
)

func newNetwork(t *testing.T, weights func() map[string]float64) *Network {
	t.Helper()
	return newNetworkOn(t, cf.New("CF01", vclock.Real()), weights)
}

// newNetworkOn allocates the ISTGENERIC structure through front.
func newNetworkOn(t *testing.T, front cf.Front, weights func() map[string]float64) *Network {
	t.Helper()
	ls, err := front.AllocateListStructure("ISTGENERIC", 8, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(context.Background(), ls, weights)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRegisterAndInstances(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	n.Register(context.Background(), "CICS", "CICSB", "SYS2")
	n.Register(context.Background(), "IMS", "IMSA", "SYS1")
	got, err := n.Instances("CICS")
	if err != nil || len(got) != 2 {
		t.Fatalf("instances = %v err=%v", got, err)
	}
	if got[0].Member != "CICSA" || got[1].Member != "CICSB" {
		t.Fatalf("instances = %v", got)
	}
	other, _ := n.Instances("IMS")
	if len(other) != 1 || other[0].Member != "IMSA" {
		t.Fatalf("IMS instances = %v", other)
	}
}

func TestLogonBalancesSessions(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	n.Register(context.Background(), "CICS", "CICSB", "SYS2")
	// Users just log on to "CICS"; binds spread across instances.
	for i := 0; i < 10; i++ {
		if _, err := n.Logon(context.Background(), "CICS"); err != nil {
			t.Fatal(err)
		}
	}
	sessions, err := n.Sessions("CICS")
	if err != nil {
		t.Fatal(err)
	}
	if sessions["SYS1"] != 5 || sessions["SYS2"] != 5 {
		t.Fatalf("sessions = %v, want even split", sessions)
	}
}

func TestLogonHonoursWLMWeights(t *testing.T) {
	n := newNetwork(t, func() map[string]float64 {
		return map[string]float64{"SYS1": 0.75, "SYS2": 0.25}
	})
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	n.Register(context.Background(), "CICS", "CICSB", "SYS2")
	for i := 0; i < 12; i++ {
		if _, err := n.Logon(context.Background(), "CICS"); err != nil {
			t.Fatal(err)
		}
	}
	sessions, _ := n.Sessions("CICS")
	if sessions["SYS1"] <= sessions["SYS2"] {
		t.Fatalf("sessions = %v, want SYS1 favoured 3:1", sessions)
	}
	if sessions["SYS1"]+sessions["SYS2"] != 12 {
		t.Fatalf("sessions = %v", sessions)
	}
}

func TestLogonNoInstances(t *testing.T) {
	n := newNetwork(t, nil)
	if _, err := n.Logon(context.Background(), "GHOST"); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogoffDecrements(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	s, err := n.Logon(context.Background(), "CICS")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Logoff(context.Background(), s.ID); err != nil {
		t.Fatal(err)
	}
	sessions, _ := n.Sessions("CICS")
	if sessions["SYS1"] != 0 {
		t.Fatalf("sessions = %v", sessions)
	}
	if err := n.Logoff(context.Background(), s.ID); !errors.Is(err, ErrNoSession) {
		t.Fatalf("double logoff err = %v", err)
	}
}

func TestDeregister(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	if err := n.Deregister(context.Background(), "CICS", "CICSA"); err != nil {
		t.Fatal(err)
	}
	if err := n.Deregister(context.Background(), "CICS", "CICSA"); err != nil {
		t.Fatal("second deregister should be a no-op")
	}
	if _, err := n.Logon(context.Background(), "CICS"); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("err = %v", err)
	}
}

func TestCleanupSystemRebindsToSurvivors(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	n.Register(context.Background(), "CICS", "CICSB", "SYS2")
	s1, _ := n.Logon(context.Background(), "CICS")
	s2, _ := n.Logon(context.Background(), "CICS")
	// SYS1 fails: its registrations and sessions vanish; new logons all
	// land on SYS2 — continuous availability from the user's seat.
	n.CleanupSystem(context.Background(), "SYS1")
	insts, _ := n.Instances("CICS")
	if len(insts) != 1 || insts[0].System != "SYS2" {
		t.Fatalf("instances = %v", insts)
	}
	for i := 0; i < 3; i++ {
		s, err := n.Logon(context.Background(), "CICS")
		if err != nil || s.System != "SYS2" {
			t.Fatalf("s = %+v err=%v", s, err)
		}
	}
	// Logoff of a session bound to the dead system is tolerated.
	for _, s := range []Session{s1, s2} {
		n.Logoff(context.Background(), s.ID)
	}
}

func TestSessionsCountPerSystem(t *testing.T) {
	n := newNetwork(t, nil)
	n.Register(context.Background(), "DB2", "DB2A", "SYS1")
	n.Register(context.Background(), "DB2", "DB2B", "SYS1") // two instances on one system
	n.Register(context.Background(), "DB2", "DB2C", "SYS2")
	for i := 0; i < 9; i++ {
		n.Logon(context.Background(), "DB2")
	}
	sessions, _ := n.Sessions("DB2")
	if sessions["SYS1"]+sessions["SYS2"] != 9 {
		t.Fatalf("sessions = %v", sessions)
	}
	if sessions["SYS1"] < sessions["SYS2"] {
		t.Fatalf("sessions = %v: two instances should attract more binds", sessions)
	}
}

func TestRebuildKeepsNetworkImage(t *testing.T) {
	cfres, err := cfrm.New(cfrm.Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := newNetworkOn(t, cfres.Front(), nil)
	n.Register(context.Background(), "CICS", "CICSA", "SYS1")
	n.Register(context.Background(), "CICS", "CICSB", "SYS2")
	n.Register(context.Background(), "IMS", "IMSA", "SYS3")
	for i := 0; i < 4; i++ {
		if _, err := n.Logon(context.Background(), "CICS"); err != nil {
			t.Fatal(err)
		}
	}
	cics, _ := n.Instances("CICS")
	ims, _ := n.Instances("IMS")
	// Rebuild the list structure into a fresh facility and retire the
	// old one.
	old := cfres.Primary()
	if err := cfres.Rebuild(); err != nil {
		t.Fatal(err)
	}
	old.Fail()
	// All registrations and session counts survive.
	if got, _ := n.Instances("CICS"); !reflect.DeepEqual(got, cics) {
		t.Fatalf("CICS instances = %v, want %v", got, cics)
	}
	if got, _ := n.Instances("IMS"); !reflect.DeepEqual(got, ims) {
		t.Fatalf("IMS instances = %v, want %v", got, ims)
	}
	sessions, _ := n.Sessions("CICS")
	if sessions["SYS1"]+sessions["SYS2"] != 4 {
		t.Fatalf("sessions = %v", sessions)
	}
	// New logons work against the new structure.
	if _, err := n.Logon(context.Background(), "CICS"); err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsOldImage: a registration in the JSON layout earlier
// builds wrote fails New by name instead of loading garbage into the
// table.
func TestNewRejectsOldImage(t *testing.T) {
	ctx := context.Background()
	ls, err := cf.New("CF01", vclock.Real()).AllocateListStructure("ISTGENERIC", 8, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(ctx, ls, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`{"generic":"CICS","member":"CICSA","system":"SYS1","sessions":1}`)
	if err := ls.Write(ctx, n.conn, n.listOf("CICS"), entryID("CICS", "CICSA"), "CICS", old, cf.Keyed, cf.Cond{}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(ctx, ls, nil); !errors.Is(err, wire.ErrLayout) {
		t.Fatalf("New over a JSON registration: %v, want wire.ErrLayout", err)
	}
}

// TestNewLoadsRegistrations: a network opened over a populated
// structure logs on to the instances and counts already there.
func TestNewLoadsRegistrations(t *testing.T) {
	ctx := context.Background()
	ls, err := cf.New("CF01", vclock.Real()).AllocateListStructure("ISTGENERIC", 8, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(ctx, ls, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Register(ctx, "CICS", "CICSA", "SYS1")
	n.Register(ctx, "CICS", "CICSB", "SYS2")
	for i := 0; i < 3; i++ {
		if _, err := n.Logon(ctx, "CICS"); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := n.Sessions("CICS")
	if before["SYS1"]+before["SYS2"] != 3 {
		t.Fatalf("sessions = %v", before)
	}
	idle := "SYS1"
	if before["SYS2"] < before["SYS1"] {
		idle = "SYS2"
	}
	n2, err := New(ctx, ls, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two sessions on one system and one on the other: the next logon
	// evens them only if n2 loaded the counts.
	if s, err := n2.Logon(ctx, "CICS"); err != nil || s.System != idle {
		t.Fatalf("logon = %+v, %v; want %s", s, err, idle)
	}
	if got, _ := n2.Sessions("CICS"); got["SYS1"] != 2 || got["SYS2"] != 2 {
		t.Fatalf("sessions = %v", got)
	}
}

// TestConcurrentLogonLogoffReturnsToZero: every logon is matched by a
// logoff, so however the writes interleave the shared counts end at
// zero.
func TestConcurrentLogonLogoffReturnsToZero(t *testing.T) {
	ctx := context.Background()
	n := newNetwork(t, nil)
	n.Register(ctx, "CICS", "CICSA", "SYS1")
	n.Register(ctx, "CICS", "CICSB", "SYS2")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s, err := n.Logon(ctx, "CICS")
				if err == nil {
					err = n.Logoff(ctx, s.ID)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, _ := n.Sessions("CICS"); got["SYS1"] != 0 || got["SYS2"] != 0 {
		t.Fatalf("sessions after balanced logons and logoffs = %v, want all zero", got)
	}
}

// TestLogoffRacingCleanupDoesNotResurrect: a logon or logoff in flight
// while a failed system is cleaned up must not write the dead system's
// registration back, or later logons would bind to it.
func TestLogoffRacingCleanupDoesNotResurrect(t *testing.T) {
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		n := newNetwork(t, nil)
		n.Register(ctx, "CICS", "CICSA", "SYS1")
		n.Register(ctx, "CICS", "CICSB", "SYS2")
		var wg sync.WaitGroup
		var pairs atomic.Int64
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if s, err := n.Logon(ctx, "CICS"); err == nil {
						n.Logoff(ctx, s.ID)
					}
					pairs.Add(1)
				}
			}()
		}
		awaitPairs := func(k int64) {
			for pairs.Load() < k {
				runtime.Gosched()
			}
		}
		awaitPairs(50)
		n.CleanupSystem(ctx, "SYS1")
		awaitPairs(pairs.Load() + 50)
		close(stop)
		wg.Wait()
		insts, _ := n.Instances("CICS")
		if len(insts) != 1 || insts[0].System != "SYS2" {
			t.Fatalf("round %d: instances after cleanup = %+v, want SYS2 only", round, insts)
		}
		for i := 0; i < 4; i++ {
			if s, err := n.Logon(ctx, "CICS"); err != nil || s.System != "SYS2" {
				t.Fatalf("round %d: logon after cleanup = %+v, %v", round, s, err)
			}
		}
	}
}

// FuzzInstance round-trips a registration image and feeds arbitrary
// bytes to its decoder, which must fail by name and never panic.
func FuzzInstance(f *testing.F) {
	f.Add("CICS", "CICSA", "SYS1", 3, Instance{Generic: "IMS", Member: "IMSA", System: "SYS2", Sessions: 7}.encode())
	f.Add("", "", "", -1, []byte(`{"generic":"CICS","member":"CICSA","system":"SYS1","sessions":1}`))
	f.Fuzz(func(t *testing.T, generic, member, system string, sessions int, raw []byte) {
		want := Instance{Generic: generic, Member: member, System: system, Sessions: sessions}
		if got, err := decodeInstance(want.encode()); err != nil || got != want {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
		if _, err := decodeInstance(raw); err != nil && !errors.Is(err, wire.ErrLayout) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("decode error %v is neither ErrLayout nor ErrMalformed", err)
		}
	})
}
