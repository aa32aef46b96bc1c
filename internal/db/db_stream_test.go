package db

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sysplex/internal/lockmgr"
	"sysplex/internal/logr"
)

// TestStreamWALCarriesCommits proves commits flow through the one log
// stream: each transaction writes one COMMIT record carrying its after
// images and nothing else, and no per-table stream exists.
func TestStreamWALCarriesCommits(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1 := fx.engines["SYS1"]
	for i := 0; i < 5; i++ {
		tx := e1.Begin(context.Background())
		if err := tx.Put("ACCT", "alice", []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e1.logger.Stream("DB.DBP1.T.ACCT"); !errors.Is(err, logr.ErrNoStream) {
		t.Fatalf("per-table stream lookup: %v, want ErrNoStream", err)
	}
	recs := syncRecords(t, e1)
	if len(recs) != 5 {
		t.Fatalf("log stream has %d records, want 5 COMMIT", len(recs))
	}
	for i, c := range recs {
		want := Image{Table: "ACCT", Key: "alice", After: []byte{byte('0' + i)}}
		if c.Kind != recCommit || len(c.Images) != 1 || !reflect.DeepEqual(c.Images[0], want) {
			t.Fatalf("record %d = %+v, want a COMMIT carrying %+v", i, c, want)
		}
	}
	// Cross-system visibility of the committed value.
	tx := fx.engines["SYS2"].Begin(context.Background())
	v, ok, err := tx.Get("ACCT", "alice")
	if err != nil || !ok || string(v) != "4" {
		t.Fatalf("alice = %q ok=%v err=%v", v, ok, err)
	}
	tx.Commit()
}

// TestStreamPeerRecovery is the stream-mode twin of TestPeerRecovery:
// SYS1 dies with a COMMIT on the log stream but pages unapplied; SYS2
// browses the merged stream and redoes the changes under the retained
// locks.
func TestStreamPeerRecovery(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	tx := e1.Begin(context.Background())
	tx.Put("ACCT", "gina", []byte("old"))
	tx.Commit()

	// Simulate SYS1 dying mid-commit: log force done (stream writes),
	// pages never applied.
	err := e1.appendLog(context.Background(), &LogRecord{Tx: "SYS1-999999", Kind: recCommit, Images: []Image{
		{Table: "ACCT", Key: "gina", After: []byte("new")},
		{Table: "ACCT", Key: "hank", After: []byte("born")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := fx.fac.LockStructure("IRLM")
	holdRecord(t, ls, "SYS1", e1.recordResource("ACCT", "gina"), "SYS1-999999")
	holdRecord(t, ls, "SYS1", e1.recordResource("ACCT", "hank"), "SYS1-999999")

	fx.plex.PartitionNow("SYS1")
	fx.fac.FailConnector("SYS1")

	txB := e2.Begin(context.Background())
	_, _, err = txB.Get("ACCT", "gina")
	if !errors.Is(err, lockmgr.ErrRetained) {
		t.Fatalf("err = %v, want retained", err)
	}
	txB.Abort()

	rep, err := e2.RecoverPeer(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 2 || rep.LocksFreed != 2 {
		t.Fatalf("report = %+v", rep)
	}
	tx2 := e2.Begin(context.Background())
	v, ok, err := tx2.Get("ACCT", "gina")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("gina = %q ok=%v err=%v", v, ok, err)
	}
	v, ok, _ = tx2.Get("ACCT", "hank")
	if !ok || string(v) != "born" {
		t.Fatalf("hank = %q ok=%v", v, ok)
	}
	tx2.Commit()
}

// TestStreamRecoveryFilters checks recovery ignores (a) in-flight and
// fully applied (lock released) transactions of the failed system and
// (b) every record written by surviving systems, which share the same
// merged stream.
func TestStreamRecoveryFilters(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	// Survivor traffic interleaved on the same streams.
	tx := e2.Begin(context.Background())
	tx.Put("ACCT", "keep", []byte("mine"))
	tx.Commit()
	// SYS1: uncommitted (no COMMIT, its lock retained) and fully
	// applied (COMMIT, its lock released).
	e1.appendLog(context.Background(), &LogRecord{Tx: "SYS1-777777", Kind: recUpdate, Images: []Image{{Table: "ACCT", Key: "ivy", After: []byte("ghost")}}})
	e1.appendLog(context.Background(),
		&LogRecord{Tx: "SYS1-888888", Kind: recCommit, Images: []Image{{Table: "ACCT", Key: "judy", After: []byte("stale")}}})
	ls, _ := fx.fac.LockStructure("IRLM")
	holdRecord(t, ls, "SYS1", e1.recordResource("ACCT", "ivy"), "SYS1-777777")
	fx.plex.PartitionNow("SYS1")
	fx.fac.FailConnector("SYS1")
	rep, err := e2.RecoverPeer(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 0 || rep.LocksFreed != 1 {
		t.Fatalf("report = %+v, nothing should be redone and ivy's lock freed", rep)
	}
	tx2 := e2.Begin(context.Background())
	if _, ok, _ := tx2.Get("ACCT", "ivy"); ok {
		t.Fatal("uncommitted change redone")
	}
	if _, ok, _ := tx2.Get("ACCT", "judy"); ok {
		t.Fatal("released transaction redone")
	}
	if v, ok, _ := tx2.Get("ACCT", "keep"); !ok || string(v) != "mine" {
		t.Fatalf("survivor's record damaged: %q ok=%v", v, ok)
	}
	tx2.Commit()
}
