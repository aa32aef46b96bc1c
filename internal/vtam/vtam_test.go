package vtam

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/vclock"
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
