package cf

import (
	"context"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"sysplex/internal/vclock"
)

func newLockStruct(t *testing.T, entries int) (*Facility, Lock) {
	t.Helper()
	f := New("CF01", vclock.Real())
	ls, err := f.AllocateLockStructure("IRLM", entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"SYS1", "SYS2", "SYS3"} {
		if err := ls.Connect(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	return f, ls
}

func TestObtainShareCompatible(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	r1, err := ls.Obtain(context.Background(), 5, "SYS1", Share)
	if err != nil || !r1.Granted {
		t.Fatalf("r1 = %+v err=%v", r1, err)
	}
	r2, err := ls.Obtain(context.Background(), 5, "SYS2", Share)
	if err != nil || !r2.Granted {
		t.Fatalf("share+share should grant: %+v err=%v", r2, err)
	}
}

func TestObtainExclusiveConflicts(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	if r, _ := ls.Obtain(context.Background(), 5, "SYS1", Exclusive); !r.Granted {
		t.Fatal("first exclusive should grant")
	}
	// Exclusive vs exclusive: contention names the holder.
	r, err := ls.Obtain(context.Background(), 5, "SYS2", Exclusive)
	if err != nil || r.Granted {
		t.Fatalf("r = %+v err=%v", r, err)
	}
	if len(r.Holders) != 1 || r.Holders[0] != "SYS1" {
		t.Fatalf("holders = %v", r.Holders)
	}
	// Share vs exclusive: contention.
	r, _ = ls.Obtain(context.Background(), 5, "SYS2", Share)
	if r.Granted || len(r.Holders) != 1 || r.Holders[0] != "SYS1" {
		t.Fatalf("share r = %+v", r)
	}
	// Same connector re-obtains freely (different resources on the same
	// entry from one system are locally serialized).
	if r, _ := ls.Obtain(context.Background(), 5, "SYS1", Exclusive); !r.Granted {
		t.Fatal("holder re-obtain should grant")
	}
	if r, _ := ls.Obtain(context.Background(), 5, "SYS1", Share); !r.Granted {
		t.Fatal("holder share should grant")
	}
}

func TestExclusiveBlockedByOtherShare(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	ls.Obtain(context.Background(), 2, "SYS1", Share)
	ls.Obtain(context.Background(), 2, "SYS3", Share)
	r, _ := ls.Obtain(context.Background(), 2, "SYS2", Exclusive)
	if r.Granted {
		t.Fatal("exclusive should conflict with other shares")
	}
	if len(r.Holders) != 2 || r.Holders[0] != "SYS1" || r.Holders[1] != "SYS3" {
		t.Fatalf("holders = %v", r.Holders)
	}
}

func TestReleaseRestoresGrantability(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	ls.Obtain(context.Background(), 7, "SYS1", Exclusive)
	ls.Obtain(context.Background(), 7, "SYS1", Exclusive) // two resources on the entry
	if err := ls.Release(context.Background(), 7, "SYS1", Exclusive); err != nil {
		t.Fatal(err)
	}
	// One exclusive interest remains.
	if r, _ := ls.Obtain(context.Background(), 7, "SYS2", Share); r.Granted {
		t.Fatal("still exclusive, share must conflict")
	}
	ls.Release(context.Background(), 7, "SYS1", Exclusive)
	if r, _ := ls.Obtain(context.Background(), 7, "SYS2", Share); !r.Granted {
		t.Fatal("entry free, share must grant")
	}
}

func TestForceObtainAfterNegotiation(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	ls.Obtain(context.Background(), 4, "SYS1", Exclusive)
	r, _ := ls.Obtain(context.Background(), 4, "SYS2", Exclusive)
	if r.Granted {
		t.Fatal("expected contention")
	}
	// Software negotiation found the conflict false (different resources
	// hash to entry 4): the requester force-obtains.
	if err := ls.ForceObtain(context.Background(), 4, "SYS2", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Both releases must leave the entry clean.
	ls.Release(context.Background(), 4, "SYS1", Exclusive)
	ls.Release(context.Background(), 4, "SYS2", Exclusive)
	if r, _ := ls.Obtain(context.Background(), 4, "SYS3", Exclusive); !r.Granted {
		t.Fatal("entry not clean after force-obtain releases")
	}
}

func TestHashResourceStableAndInRange(t *testing.T) {
	_, ls := newLockStruct(t, 37)
	seen := map[int]bool{}
	for _, r := range []string{"DB.T1.ROW5", "DB.T1.ROW6", "DB.T2.ROW5", "Q#4711", ""} {
		h1 := ls.HashResource(r)
		h2 := ls.HashResource(r)
		if h1 != h2 {
			t.Fatalf("hash of %q not stable", r)
		}
		if h1 < 0 || h1 >= 37 {
			t.Fatalf("hash of %q out of range: %d", r, h1)
		}
		seen[h1] = true
	}
	if len(seen) < 2 {
		t.Fatal("suspiciously degenerate hashing")
	}
}

func TestPersistentRecordsAndRetention(t *testing.T) {
	f, ls := newLockStruct(t, 16)
	ctx := context.Background()
	for _, lk := range []struct{ res, owner string }{{"DB.T1.ROW5", "TX5"}, {"DB.T1.ROW9", "TX9"}} {
		if r, err := ls.ObtainResource(ctx, "SYS1", lk.res, lk.owner, Exclusive); err != nil || !r.Granted {
			t.Fatalf("ObtainResource(%s) = %+v, %v", lk.res, r, err)
		}
	}
	// A share grant writes no record.
	if r, err := ls.ObtainResource(ctx, "SYS1", "DB.T1.ROW7", "TX7", Share); err != nil || !r.Granted {
		t.Fatalf("share ObtainResource = %+v, %v", r, err)
	}

	// Abnormal termination of SYS1.
	f.FailConnector("SYS1")

	// Entry interest is gone: others can lock the entry immediately...
	row5 := ls.HashResource("DB.T1.ROW5")
	if r, _ := ls.Obtain(ctx, row5, "SYS2", Exclusive); !r.Granted {
		t.Fatal("failed connector's entry interest not cleared")
	}
	// ...but the records are retained for peer recovery, and a request
	// naming a retained resource is refused, naming the failed system,
	// with nothing granted.
	ret := retainedConns(ls)
	if len(ret) != 1 || ret[0] != "SYS1" {
		t.Fatalf("retained = %v", ret)
	}
	if r, err := ls.ObtainResource(ctx, "SYS2", "DB.T1.ROW5", "TX2", Share); err != nil || r.Granted || r.Retained != "SYS1" {
		t.Fatalf("ObtainResource of a retained resource = %+v, %v; want refused by SYS1", r, err)
	}
	if r, err := ls.ForceObtainResource(ctx, "SYS2", "DB.T1.ROW9", "TX2", Exclusive); err != nil || r.Granted || r.Retained != "SYS1" {
		t.Fatalf("ForceObtainResource of a retained resource = %+v, %v; want refused by SYS1", r, err)
	}
	if share, _, _ := ls.Interest(row5, "SYS2"); share != 0 {
		t.Fatalf("refused request left %d share interest", share)
	}
	recs, err := ls.Records(ctx, "SYS1")
	if err != nil || len(recs) != 2 {
		t.Fatalf("records = %v err=%v", recs, err)
	}
	if recs[0].Resource != "DB.T1.ROW5" || recs[0].Mode != Exclusive || recs[0].Owner != "TX5" {
		t.Fatalf("rec0 = %+v", recs[0])
	}
	// Peer completes recovery and deletes the records.
	ls.DeleteRecord(ctx, "SYS1", "DB.T1.ROW5", "")
	ls.DeleteRecord(ctx, "SYS1", "DB.T1.ROW9", "")
	if len(retainedConns(ls)) != 0 {
		t.Fatal("retention not cleared after recovery")
	}
	if r, err := ls.ObtainResource(ctx, "SYS2", "DB.T1.ROW5", "TX2", Share); err != nil || !r.Granted {
		t.Fatalf("ObtainResource after recovery = %+v, %v", r, err)
	}
}

// retainedConns lists the failed connectors whose records are retained.
func retainedConns(ls Lock) []string {
	s := ls.(*LockStructure)
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.recMu.Lock()
	defer s.recMu.Unlock()
	var out []string
	for c := range s.retained {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// TestDeleteRecordSparesNextOwner: an exclusive release that lands
// after the connector's next owner of the resource was granted leaves
// that owner's record in place; an ownerless delete (recovery) does not,
// and a share release deletes nothing.
func TestDeleteRecordSparesNextOwner(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	ctx := context.Background()
	owns := func(want string) {
		t.Helper()
		recs, err := ls.Records(ctx, "SYS1")
		if err != nil || (want == "") != (len(recs) == 0) || (want != "" && (len(recs) != 1 || recs[0].Owner != want)) {
			t.Fatalf("records = %+v, %v; want owner %q", recs, err, want)
		}
	}
	for _, owner := range []string{"TX1", "TX2"} {
		if r, err := ls.ObtainResource(ctx, "SYS1", "R", owner, Exclusive); err != nil || !r.Granted {
			t.Fatalf("ObtainResource(%s) = %+v, %v", owner, r, err)
		}
	}
	if err := ls.ReleaseResource(ctx, "SYS1", "R", "TX1", Exclusive); err != nil {
		t.Fatal(err)
	}
	owns("TX2")
	if err := ls.ReleaseResource(ctx, "SYS1", "R", "TX2", Exclusive); err != nil {
		t.Fatal(err)
	}
	owns("")
	if _, excl, _ := ls.Interest(ls.HashResource("R"), "SYS1"); excl != 0 {
		t.Fatalf("exclusive interest %d after both releases", excl)
	}
	ls.ObtainResource(ctx, "SYS1", "R", "TX3", Exclusive)
	if err := ls.ReleaseResource(ctx, "SYS1", "R", "TX3", Share); err != nil {
		t.Fatal(err)
	}
	owns("TX3")
	if err := ls.DeleteRecord(ctx, "SYS1", "R", ""); err != nil {
		t.Fatal(err)
	}
	owns("")
}

func TestNormalDisconnectDropsRecords(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	ls.ObtainResource(context.Background(), "SYS1", "R", "TX1", Exclusive)
	ls.(*LockStructure).disconnect("SYS1")
	if len(retainedConns(ls)) != 0 {
		t.Fatal("normal shutdown should not retain records")
	}
	recs, _ := ls.Records(context.Background(), "SYS1")
	if len(recs) != 0 {
		t.Fatalf("records = %v", recs)
	}
}

func TestNotConnectedRejected(t *testing.T) {
	_, ls := newLockStruct(t, 16)
	if _, err := ls.Obtain(context.Background(), 0, "GHOST", Share); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ls.ObtainResource(context.Background(), "GHOST", "R", "TX1", Exclusive); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v", err)
	}
	if recs, _ := ls.Records(context.Background(), "GHOST"); len(recs) != 0 {
		t.Fatalf("refused obtain wrote %+v", recs)
	}
}

func TestBadEntryIndex(t *testing.T) {
	_, ls := newLockStruct(t, 4)
	if _, err := ls.Obtain(context.Background(), 4, "SYS1", Share); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ls.Obtain(context.Background(), -1, "SYS1", Share); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ls.Interest(9, "SYS1"); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	// A command naming a resource must address the resource's own entry,
	// which is what orders it against the other commands on that record.
	other := (ls.HashResource("R") + 1) % 4
	for _, k := range []Kind{CmdLockObtain, CmdLockForce, CmdLockRelease, CmdLockDelRecord} {
		c := Cmd{Kind: k, Idx: other, Conn: "SYS1", Name: "R", Key: "TX1", Mode: Exclusive}
		if _, err := ls.(*LockStructure).Exec(context.Background(), c); !errors.Is(err, ErrBadArgument) {
			t.Fatalf("%v on another entry: err = %v", k, err)
		}
	}
	if recs, _ := ls.Records(context.Background(), "SYS1"); len(recs) != 0 {
		t.Fatalf("misaddressed obtain wrote %+v", recs)
	}
}

func TestBadMode(t *testing.T) {
	_, ls := newLockStruct(t, 4)
	if _, err := ls.Obtain(context.Background(), 0, "SYS1", LockMode(9)); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if err := ls.Release(context.Background(), 0, "SYS1", LockMode(9)); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
	if err := ls.ForceObtain(context.Background(), 0, "SYS1", LockMode(9)); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestReconnectClearsRetention(t *testing.T) {
	f, ls := newLockStruct(t, 8)
	ls.ObtainResource(context.Background(), "SYS1", "R", "TX1", Exclusive)
	f.FailConnector("SYS1")
	if len(retainedConns(ls)) != 1 {
		t.Fatal("not retained")
	}
	// SYS1 restarts and reconnects (it will recover its own records).
	ls.Connect(context.Background(), "SYS1")
	if len(retainedConns(ls)) != 0 {
		t.Fatal("retention survived reconnect")
	}
	recs, _ := ls.Records(context.Background(), "SYS1")
	if len(recs) != 1 {
		t.Fatal("own records lost on reconnect")
	}
}

// Property: grant decisions match a reference compatibility oracle when
// only fast-path Obtain/Release are used.
func TestLockCompatibilityProperty(t *testing.T) {
	conns := []string{"SYS1", "SYS2", "SYS3"}
	type op struct {
		Conn    uint8
		Entry   uint8
		Mode    bool // true = exclusive
		Release bool
	}
	f := func(ops []op) bool {
		fac := New("CF", vclock.Real())
		ls, _ := fac.AllocateLockStructure("L", 8)
		for _, c := range conns {
			ls.Connect(context.Background(), c)
		}
		type key struct {
			entry int
			conn  string
		}
		share := map[key]int{}
		excl := map[key]int{}
		for _, o := range ops {
			conn := conns[int(o.Conn)%len(conns)]
			entry := int(o.Entry) % 8
			mode := Share
			if o.Mode {
				mode = Exclusive
			}
			k := key{entry, conn}
			if o.Release {
				if mode == Share && share[k] > 0 {
					share[k]--
				}
				if mode == Exclusive && excl[k] > 0 {
					excl[k]--
				}
				ls.Release(context.Background(), entry, conn, mode)
				continue
			}
			res, err := ls.Obtain(context.Background(), entry, conn, mode)
			if err != nil {
				return false
			}
			// Oracle: grant iff compatible with other connectors' state.
			compatible := true
			for _, other := range conns {
				if other == conn {
					continue
				}
				ok := key{entry, other}
				if excl[ok] > 0 {
					compatible = false
				}
				if mode == Exclusive && share[ok] > 0 {
					compatible = false
				}
			}
			if res.Granted != compatible {
				return false
			}
			if res.Granted {
				if mode == Share {
					share[k]++
				} else {
					excl[k]++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
