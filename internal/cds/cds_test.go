package cds

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sysplex/internal/dasd"
	"sysplex/internal/vclock"
)

// twoVolumeStore builds a duplexed store with primary and alternate on
// separate volumes so device failures can be injected independently.
func twoVolumeStore(t *testing.T, opts Options) (*Store, *dasd.Farm, *dasd.Volume, *dasd.Volume) {
	t.Helper()
	f := dasd.NewFarm(vclock.Real())
	v1, err := f.AddVolume("CDS001", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := f.AddVolume("CDS002", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pri, err := f.Allocate("CDS001", "SYSPLEX.CDS.PRI", 32)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := f.Allocate("CDS002", "SYSPLEX.CDS.ALT", 32)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New("SYSPLEX", vclock.Real(), pri, alt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, f, v1, v2
}

func TestSetGetDelete(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{})
	err := st.Update("SYS1", func(v *View) error {
		if err := v.Set("sys.status.SYS1", []byte("active")); err != nil {
			return err
		}
		return v.Set("sys.status.SYS2", []byte("active"))
	})
	if err != nil {
		t.Fatal(err)
	}
	val, ok, err := st.Read("SYS2", "sys.status.SYS1")
	if err != nil || !ok || string(val) != "active" {
		t.Fatalf("read = %q ok=%v err=%v", val, ok, err)
	}
	if err := st.Update("SYS1", func(v *View) error { v.Delete("sys.status.SYS1"); return nil }); err != nil {
		t.Fatal(err)
	}
	_, ok, _ = st.Read("SYS1", "sys.status.SYS1")
	if ok {
		t.Fatal("deleted key still present")
	}
	keys, err := st.Keys("SYS1")
	if err != nil || len(keys) != 1 || keys[0] != "sys.status.SYS2" {
		t.Fatalf("keys = %v err=%v", keys, err)
	}
}

func TestUpdateStagedVisibility(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{})
	err := st.Update("SYS1", func(v *View) error {
		v.Set("k", []byte("v1"))
		got, ok, err := v.Get("k")
		if err != nil || !ok || string(got) != "v1" {
			return fmt.Errorf("staged write invisible: %q %v %v", got, ok, err)
		}
		v.Delete("k")
		if _, ok, _ := v.Get("k"); ok {
			return errors.New("staged delete invisible")
		}
		v.Set("k", []byte("v2"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	val, ok, _ := st.Read("SYS1", "k")
	if !ok || string(val) != "v2" {
		t.Fatalf("final value = %q ok=%v", val, ok)
	}
}

func TestUpdateErrorAborts(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{})
	boom := errors.New("boom")
	err := st.Update("SYS1", func(v *View) error {
		v.Set("k", []byte("x"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok, _ := st.Read("SYS1", "k"); ok {
		t.Fatal("aborted update committed")
	}
}

func TestValueTooLarge(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{})
	err := st.Update("SYS1", func(v *View) error {
		return v.Set("big", make([]byte, dasd.BlockSize))
	})
	if !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreFull(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{})
	// 32 blocks - 4 directory = 28 value slots.
	err := st.Update("SYS1", func(v *View) error {
		for i := 0; i < 28; i++ {
			if err := v.Set(fmt.Sprintf("k%02d", i), []byte("x")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = st.Update("SYS1", func(v *View) error { return v.Set("overflow", []byte("x")) })
	if !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v", err)
	}
	// Deleting frees a slot.
	if err := st.Update("SYS1", func(v *View) error { v.Delete("k00"); return v.Set("new", []byte("y")) }); err != nil {
		t.Fatal(err)
	}
}

func TestSerializedConcurrentUpdates(t *testing.T) {
	st, _, _, _ := twoVolumeStore(t, Options{ReserveTimeout: 10 * time.Second})
	var wg sync.WaitGroup
	const nSys, nIter = 4, 25
	for s := 0; s < nSys; s++ {
		sys := fmt.Sprintf("SYS%d", s+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < nIter; i++ {
				err := st.Update(sys, func(v *View) error {
					raw, _, err := v.Get("counter")
					if err != nil {
						return err
					}
					count := 0
					if len(raw) > 0 {
						fmt.Sscanf(string(raw), "%d", &count)
					}
					return v.Set("counter", []byte(fmt.Sprintf("%d", count+1)))
				})
				if err != nil {
					t.Errorf("%s: %v", sys, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	raw, ok, err := st.Read("SYS1", "counter")
	if err != nil || !ok {
		t.Fatalf("read: %v ok=%v", err, ok)
	}
	want := fmt.Sprintf("%d", nSys*nIter)
	if string(raw) != want {
		t.Fatalf("counter = %s, want %s (lost updates: access not serialized)", raw, want)
	}
}

func TestStaleHolderReserveBroken(t *testing.T) {
	failed := map[string]bool{}
	var mu sync.Mutex
	st, _, v1, _ := twoVolumeStore(t, Options{
		ReserveTimeout: 200 * time.Millisecond,
		StaleHolder: func(sys string) bool {
			mu.Lock()
			defer mu.Unlock()
			return failed[sys]
		},
	})
	// SYSDEAD grabs the reserve and "dies".
	if err := v1.Reserve("SYSDEAD"); err != nil {
		t.Fatal(err)
	}
	// Without the stale-holder callback firing, updates time out.
	err := st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("x")) })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// Declare SYSDEAD failed: the reserve is broken and the update goes through.
	mu.Lock()
	failed["SYSDEAD"] = true
	mu.Unlock()
	if err := st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("x")) }); err != nil {
		t.Fatal(err)
	}
}

func TestHotSwitchOnPrimaryFailure(t *testing.T) {
	st, _, v1, _ := twoVolumeStore(t, Options{})
	if err := st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("before")) }); err != nil {
		t.Fatal(err)
	}
	if !st.Duplexed() {
		t.Fatal("store should start duplexed")
	}
	v1.SetBroken(true) // primary device dies
	// Reads and writes keep working off the alternate.
	val, ok, err := st.Read("SYS1", "k")
	if err != nil || !ok || string(val) != "before" {
		t.Fatalf("read after failure: %q ok=%v err=%v", val, ok, err)
	}
	if err := st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("after")) }); err != nil {
		t.Fatalf("update after failure: %v", err)
	}
	if st.Switches() == 0 {
		t.Fatal("no hot switch recorded")
	}
	if st.Duplexed() {
		t.Fatal("store should be simplexed after switch")
	}
	val, _, _ = st.Read("SYS1", "k")
	if string(val) != "after" {
		t.Fatalf("value after switch = %q", val)
	}
}

func TestReduplexAfterSwitch(t *testing.T) {
	st, f, v1, _ := twoVolumeStore(t, Options{})
	st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("data")) })
	v1.SetBroken(true)
	st.Read("SYS1", "k") // force the switch
	// Bring a new alternate online.
	f.AddVolume("CDS003", 64, 2)
	newAlt, err := f.Allocate("CDS003", "SYSPLEX.CDS.NEWALT", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetAlternate("SYS1", newAlt); err != nil {
		t.Fatal(err)
	}
	if !st.Duplexed() {
		t.Fatal("not duplexed after SetAlternate")
	}
	// Fail the (former alternate, now primary) second volume; the fresh
	// alternate must carry the data.
	vol2, _ := f.Volume("CDS002")
	vol2.SetBroken(true)
	val, ok, err := st.Read("SYS1", "k")
	if err != nil || !ok || string(val) != "data" {
		t.Fatalf("read off re-duplexed copy: %q ok=%v err=%v", val, ok, err)
	}
	if st.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", st.Switches())
	}
}

func TestAllCopiesFailed(t *testing.T) {
	st, _, v1, v2 := twoVolumeStore(t, Options{ReserveTimeout: 50 * time.Millisecond})
	v1.SetBroken(true)
	v2.SetBroken(true)
	err := st.Update("SYS1", func(v *View) error { return v.Set("k", []byte("x")) })
	if err == nil {
		t.Fatal("update succeeded with all copies failed")
	}
}

func TestSimplexStore(t *testing.T) {
	f := dasd.NewFarm(vclock.Real())
	f.AddVolume("V", 64, 1)
	pri, _ := f.Allocate("V", "CDS", 32)
	st, err := New("X", vclock.Real(), pri, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplexed() {
		t.Fatal("simplex store reports duplexed")
	}
	if err := st.Update("SYS1", func(v *View) error { return v.Set("a", []byte("1")) }); err != nil {
		t.Fatal(err)
	}
	val, ok, _ := st.Read("SYS1", "a")
	if !ok || string(val) != "1" {
		t.Fatalf("val = %q", val)
	}
}

func TestNewValidation(t *testing.T) {
	f := dasd.NewFarm(vclock.Real())
	f.AddVolume("V", 64, 1)
	small, _ := f.Allocate("V", "SMALL", 4)
	big, _ := f.Allocate("V", "BIG", 32)
	other, _ := f.Allocate("V", "OTHER", 16)
	if _, err := New("X", vclock.Real(), nil, nil, Options{}); err == nil {
		t.Fatal("nil primary accepted")
	}
	if _, err := New("X", vclock.Real(), small, nil, Options{}); err == nil {
		t.Fatal("too-small primary accepted")
	}
	if _, err := New("X", vclock.Real(), big, other, Options{}); err == nil {
		t.Fatal("size-mismatched alternate accepted")
	}
}

func TestPersistenceAcrossStoreInstances(t *testing.T) {
	f := dasd.NewFarm(vclock.Real())
	f.AddVolume("V", 64, 1)
	pri, _ := f.Allocate("V", "CDS", 32)
	st1, _ := New("X", vclock.Real(), pri, nil, Options{})
	st1.Update("SYS1", func(v *View) error { return v.Set("persist", []byte("yes")) })
	// A brand-new Store over the same dataset (e.g. after sysplex re-IPL)
	// sees the data.
	st2, _ := New("X", vclock.Real(), pri, nil, Options{})
	val, ok, err := st2.Read("SYS2", "persist")
	if err != nil || !ok || string(val) != "yes" {
		t.Fatalf("val = %q ok=%v err=%v", val, ok, err)
	}
}

// Property: an arbitrary sequence of Set/Delete matches a map oracle.
func TestStoreMatchesMapOracleProperty(t *testing.T) {
	type op struct {
		Key uint8
		Del bool
		Val uint16
	}
	f := func(ops []op) bool {
		farm := dasd.NewFarm(vclock.Real())
		farm.AddVolume("V", 128, 1)
		pri, _ := farm.Allocate("V", "CDS", 64)
		st, _ := New("X", vclock.Real(), pri, nil, Options{})
		oracle := map[string][]byte{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			err := st.Update("SYS1", func(v *View) error {
				if o.Del {
					v.Delete(key)
					return nil
				}
				return v.Set(key, []byte(fmt.Sprintf("%d", o.Val)))
			})
			if err != nil {
				return false
			}
			if o.Del {
				delete(oracle, key)
			} else {
				oracle[key] = []byte(fmt.Sprintf("%d", o.Val))
			}
		}
		for k, want := range oracle {
			got, ok, err := st.Read("SYS1", k)
			if err != nil || !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		keys, _ := st.Keys("SYS1")
		return len(keys) == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestV1DirectoryRejected: the unchecksummed 0xC0DB1996 layout has no
// writer, so a dataset carrying it is not a couple data set this code
// can read — the store must say so rather than decode it unchecked or
// mistake it for a never-formatted dataset and overwrite it.
func TestV1DirectoryRejected(t *testing.T) {
	// magic | count=1 | klen=2 block=1 length=3 | "hi"
	v1 := []byte{0xC0, 0xDB, 0x19, 0x96, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 'h', 'i'}
	if _, err := decodeDirectory(v1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("decodeDirectory(V1 image) = %v, want ErrBadMagic", err)
	}
	f := dasd.NewFarm(vclock.Real())
	if _, err := f.AddVolume("CDS001", 64, 2); err != nil {
		t.Fatal(err)
	}
	pri, err := f.Allocate("CDS001", "SYSPLEX.CDS.PRI", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.Write("SYS1", 0, v1); err != nil {
		t.Fatal(err)
	}
	st, err := New("SYSPLEX", vclock.Real(), pri, nil, Options{})
	if err == nil {
		_, _, err = st.Read("SYS1", "hi")
	}
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("store over a V1 image: %v, want ErrBadMagic", err)
	}
}
