package cf

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"sysplex/internal/vclock"
)

type listFixture struct {
	fac  *Facility
	ls   List
	vecs map[string]*BitVector
}

func newListStruct(t *testing.T, nLists, nLocks, maxEntries int) *listFixture {
	t.Helper()
	fac := New("CF01", vclock.Real())
	ls, err := fac.AllocateListStructure("WORKQ", nLists, nLocks, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	fx := &listFixture{fac: fac, ls: ls, vecs: map[string]*BitVector{}}
	for _, c := range []string{"SYS1", "SYS2", "SYS3"} {
		v := NewBitVector(16)
		fx.vecs[c] = v
		if err := ls.Connect(context.Background(), c, v); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

var nocond = Cond{}

func TestWriteReadDelete(t *testing.T) {
	fx := newListStruct(t, 2, 0, 100)
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "e1", "", []byte("payload"), FIFO, nocond); err != nil {
		t.Fatal(err)
	}
	e, err := fx.ls.Read(context.Background(), "SYS2", "e1", nocond)
	if err != nil || string(e.Data) != "payload" || e.List != 0 {
		t.Fatalf("e = %+v err=%v", e, err)
	}
	// Update in place.
	fx.ls.Write(context.Background(), "SYS2", 0, "e1", "", []byte("updated"), FIFO, nocond)
	e, _ = fx.ls.Read(context.Background(), "SYS1", "e1", nocond)
	if string(e.Data) != "updated" {
		t.Fatalf("update lost: %q", e.Data)
	}
	if fx.ls.TotalEntries() != 1 {
		t.Fatal("update created a duplicate")
	}
	if err := fx.ls.Delete(context.Background(), "SYS1", "e1", nocond); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ls.Read(context.Background(), "SYS1", "e1", nocond); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFIFOAndLIFOOrder(t *testing.T) {
	fx := newListStruct(t, 2, 0, 100)
	for i := 0; i < 3; i++ {
		fx.ls.Write(context.Background(), "SYS1", 0, fmt.Sprintf("f%d", i), "", nil, FIFO, nocond)
		fx.ls.Write(context.Background(), "SYS1", 1, fmt.Sprintf("l%d", i), "", nil, LIFO, nocond)
	}
	for i := 0; i < 3; i++ {
		e, err := fx.ls.Pop(context.Background(), "SYS2", 0, nocond)
		if err != nil || e.ID != fmt.Sprintf("f%d", i) {
			t.Fatalf("FIFO pop %d = %+v err=%v", i, e, err)
		}
	}
	for i := 2; i >= 0; i-- {
		e, err := fx.ls.Pop(context.Background(), "SYS2", 1, nocond)
		if err != nil || e.ID != fmt.Sprintf("l%d", i) {
			t.Fatalf("LIFO pop = %+v err=%v", e, err)
		}
	}
}

func TestKeyedCollatingOrder(t *testing.T) {
	fx := newListStruct(t, 1, 0, 100)
	for _, k := range []string{"m", "a", "z", "c"} {
		fx.ls.Write(context.Background(), "SYS1", 0, "id-"+k, k, nil, Keyed, nocond)
	}
	want := []string{"a", "c", "m", "z"}
	got := fx.ls.Entries(0)
	for i, e := range got {
		if e.Key != want[i] {
			t.Fatalf("keyed order = %v", got)
		}
	}
	// Equal keys: insertion order preserved among them (stable).
	fx.ls.Write(context.Background(), "SYS1", 0, "id-a2", "a", nil, Keyed, nocond)
	got = fx.ls.Entries(0)
	if got[0].ID != "id-a" || got[1].ID != "id-a2" {
		t.Fatalf("stability broken: %v", got)
	}
}

func TestReadFirstNonDestructive(t *testing.T) {
	fx := newListStruct(t, 1, 0, 100)
	fx.ls.Write(context.Background(), "SYS1", 0, "e", "", []byte("x"), FIFO, nocond)
	e, err := fx.ls.ReadFirst(context.Background(), "SYS1", 0, nocond)
	if err != nil || e.ID != "e" {
		t.Fatalf("e=%+v err=%v", e, err)
	}
	if fx.ls.Len(0) != 1 {
		t.Fatal("ReadFirst consumed the entry")
	}
	if _, err := fx.ls.Pop(context.Background(), "SYS1", 0, nocond); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ls.Pop(context.Background(), "SYS1", 0, nocond); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("pop empty: %v", err)
	}
	if _, err := fx.ls.ReadFirst(context.Background(), "SYS1", 0, nocond); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("readfirst empty: %v", err)
	}
}

func TestMoveAtomic(t *testing.T) {
	fx := newListStruct(t, 2, 0, 100)
	fx.ls.Write(context.Background(), "SYS1", 0, "e", "", []byte("x"), FIFO, nocond)
	if err := fx.ls.Move(context.Background(), "SYS2", "e", 1, FIFO, nocond); err != nil {
		t.Fatal(err)
	}
	if fx.ls.Len(0) != 0 || fx.ls.Len(1) != 1 {
		t.Fatalf("lens = %d,%d", fx.ls.Len(0), fx.ls.Len(1))
	}
	e, _ := fx.ls.Read(context.Background(), "SYS1", "e", nocond)
	if e.List != 1 {
		t.Fatalf("entry list = %d", e.List)
	}
	if err := fx.ls.Move(context.Background(), "SYS1", "ghost", 1, FIFO, nocond); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestEntryLimit(t *testing.T) {
	fx := newListStruct(t, 1, 0, 2)
	fx.ls.Write(context.Background(), "SYS1", 0, "a", "", nil, FIFO, nocond)
	fx.ls.Write(context.Background(), "SYS1", 0, "b", "", nil, FIFO, nocond)
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "c", "", nil, FIFO, nocond); !errors.Is(err, ErrListFull) {
		t.Fatalf("err = %v", err)
	}
	// Updates of existing entries are always allowed.
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "a", "", []byte("u"), FIFO, nocond); err != nil {
		t.Fatal(err)
	}
	fx.ls.Pop(context.Background(), "SYS1", 0, nocond)
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "c", "", nil, FIFO, nocond); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionSignal(t *testing.T) {
	fx := newListStruct(t, 2, 0, 100)
	if err := fx.ls.Monitor(context.Background(), "SYS2", 0, 3); err != nil {
		t.Fatal(err)
	}
	fx.ls.Monitor(context.Background(), "SYS3", 0, 4)
	if fx.vecs["SYS2"].Test(3) {
		t.Fatal("bit set before transition")
	}
	// Empty -> non-empty fires the signal to all monitors.
	fx.ls.Write(context.Background(), "SYS1", 0, "w1", "", nil, FIFO, nocond)
	if !fx.vecs["SYS2"].Test(3) || !fx.vecs["SYS3"].Test(4) {
		t.Fatal("transition signal missing")
	}
	// Non-empty -> non-empty does not re-fire.
	fx.vecs["SYS2"].Clear(3)
	fx.ls.Write(context.Background(), "SYS1", 0, "w2", "", nil, FIFO, nocond)
	if fx.vecs["SYS2"].Test(3) {
		t.Fatal("signal fired without a transition")
	}
	// Drain then refill: fires again.
	fx.ls.Pop(context.Background(), "SYS2", 0, nocond)
	fx.ls.Pop(context.Background(), "SYS2", 0, nocond)
	fx.ls.Write(context.Background(), "SYS1", 0, "w3", "", nil, FIFO, nocond)
	if !fx.vecs["SYS2"].Test(3) {
		t.Fatal("signal missing after drain/refill")
	}
}

func TestMonitorOnNonEmptyListSetsBitImmediately(t *testing.T) {
	fx := newListStruct(t, 1, 0, 100)
	fx.ls.Write(context.Background(), "SYS1", 0, "w", "", nil, FIFO, nocond)
	fx.ls.Monitor(context.Background(), "SYS2", 0, 1)
	if !fx.vecs["SYS2"].Test(1) {
		t.Fatal("monitor on non-empty list should set bit")
	}
}

func TestMoveTransitionSignal(t *testing.T) {
	fx := newListStruct(t, 2, 0, 100)
	fx.ls.Write(context.Background(), "SYS1", 0, "w", "", nil, FIFO, nocond)
	fx.ls.Monitor(context.Background(), "SYS2", 1, 2)
	fx.ls.Move(context.Background(), "SYS1", "w", 1, FIFO, nocond)
	if !fx.vecs["SYS2"].Test(2) {
		t.Fatal("move onto empty list should signal")
	}
}

func TestSerializedListProtocol(t *testing.T) {
	fx := newListStruct(t, 1, 2, 100)
	// Recovery on SYS3 quiesces mainline operations by setting the lock.
	if err := fx.ls.SetLock(context.Background(), 0, "SYS3"); err != nil {
		t.Fatal(err)
	}
	// Mainline conditional requests are rejected while the lock is held...
	err := fx.ls.Write(context.Background(), "SYS1", 0, "w", "", nil, FIFO, Cond{Use: true, LockIndex: 0})
	if !errors.Is(err, ErrLockHeld) {
		t.Fatalf("err = %v", err)
	}
	// ...but the lock holder itself proceeds.
	if err := fx.ls.Write(context.Background(), "SYS3", 0, "r", "", nil, FIFO, Cond{Use: true, LockIndex: 0}); err != nil {
		t.Fatal(err)
	}
	// Contending SetLock fails rather than queueing.
	if err := fx.ls.SetLock(context.Background(), 0, "SYS1"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("err = %v", err)
	}
	// Release re-enables mainline.
	fx.ls.ReleaseLock(context.Background(), 0, "SYS3")
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "w", "", nil, FIFO, Cond{Use: true, LockIndex: 0}); err != nil {
		t.Fatal(err)
	}
	// Non-holder release is a no-op.
	fx.ls.SetLock(context.Background(), 1, "SYS1")
	fx.ls.ReleaseLock(context.Background(), 1, "SYS2")
	if fx.ls.LockHolder(1) != "SYS1" {
		t.Fatal("non-holder release cleared lock")
	}
}

func TestFailConnectorReleasesLocksAndMonitors(t *testing.T) {
	fx := newListStruct(t, 1, 1, 100)
	fx.ls.SetLock(context.Background(), 0, "SYS1")
	fx.ls.Monitor(context.Background(), "SYS1", 0, 1)
	fx.ls.Write(context.Background(), "SYS1", 0, "persist", "", []byte("x"), FIFO, nocond)
	fx.fac.FailConnector("SYS1")
	if fx.ls.LockHolder(0) != "" {
		t.Fatal("dead connector still holds lock")
	}
	// Entries written by the dead connector persist for peers.
	if _, err := fx.ls.Read(context.Background(), "SYS2", "persist", nocond); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ls.Pop(context.Background(), "SYS1", 0, nocond); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("dead connector accepted: %v", err)
	}
}

func TestMonitorValidation(t *testing.T) {
	fx := newListStruct(t, 1, 0, 10)
	if err := fx.ls.Monitor(context.Background(), "GHOST", 0, 0); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
	if err := fx.ls.Monitor(context.Background(), "SYS1", 5, 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	fx.ls.Connect(context.Background(), "NOVEC", nil)
	if err := fx.ls.Monitor(context.Background(), "NOVEC", 0, 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestListBounds(t *testing.T) {
	fx := newListStruct(t, 2, 1, 10)
	if err := fx.ls.Write(context.Background(), "SYS1", 9, "e", "", nil, FIFO, nocond); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if err := fx.ls.Write(context.Background(), "SYS1", 0, "e", "", nil, FIFO, Cond{Use: true, LockIndex: 7}); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if fx.ls.Len(42) != 0 || fx.ls.Entries(42) != nil {
		t.Fatal("out-of-range list not empty")
	}
	if fx.ls.LockHolder(42) != "" {
		t.Fatal("out-of-range lock holder")
	}
}

// Property (§3.3.3 atomicity): across any sequence of writes, moves,
// pops and deletes, every entry is on exactly one list and total counts
// are conserved — no entry is ever lost or duplicated.
func TestListConservationProperty(t *testing.T) {
	type op struct {
		Kind uint8
		ID   uint8
		List uint8
	}
	f := func(ops []op) bool {
		fac := New("CF", vclock.Real())
		ls, _ := fac.AllocateListStructure("L", 3, 0, 1000)
		ls.Connect(context.Background(), "SYS1", nil)
		oracle := map[string]bool{} // entry id -> exists
		for _, o := range ops {
			id := fmt.Sprintf("e%d", o.ID%32)
			list := int(o.List) % 3
			switch o.Kind % 4 {
			case 0:
				if err := ls.Write(context.Background(), "SYS1", list, id, "", nil, FIFO, nocond); err == nil {
					oracle[id] = true
				}
			case 1:
				if err := ls.Delete(context.Background(), "SYS1", id, nocond); err == nil {
					if !oracle[id] {
						return false
					}
					delete(oracle, id)
				} else if oracle[id] {
					return false
				}
			case 2:
				if err := ls.Move(context.Background(), "SYS1", id, list, FIFO, nocond); err == nil {
					if !oracle[id] {
						return false
					}
				} else if oracle[id] {
					return false
				}
			case 3:
				if e, err := ls.Pop(context.Background(), "SYS1", list, nocond); err == nil {
					if !oracle[e.ID] {
						return false
					}
					delete(oracle, e.ID)
				}
			}
			// Conservation: sum of list lengths == total entries == oracle size.
			sum := ls.Len(0) + ls.Len(1) + ls.Len(2)
			if sum != ls.TotalEntries() || sum != len(oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAdjunct(t *testing.T) {
	fx := newListStruct(t, 1, 1, 10)
	fx.ls.Write(context.Background(), "SYS1", 0, "e", "", []byte("data"), FIFO, nocond)
	if err := fx.ls.SetAdjunct(context.Background(), "SYS1", "e", "castout-class-7", nocond); err != nil {
		t.Fatal(err)
	}
	e, err := fx.ls.Read(context.Background(), "SYS2", "e", nocond)
	if err != nil || e.Adjunct != "castout-class-7" || string(e.Data) != "data" {
		t.Fatalf("e = %+v err=%v", e, err)
	}
	if err := fx.ls.SetAdjunct(context.Background(), "SYS1", "ghost", "x", nocond); !errors.Is(err, ErrEntryNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Honours the serialized-list condition.
	fx.ls.SetLock(context.Background(), 0, "SYS2")
	err = fx.ls.SetAdjunct(context.Background(), "SYS1", "e", "y", Cond{Use: true, LockIndex: 0})
	if !errors.Is(err, ErrLockHeld) {
		t.Fatalf("err = %v", err)
	}
}
