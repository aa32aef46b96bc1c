package db

import (
	"context"
	"errors"
	"testing"

	"sysplex/internal/cf"
	"sysplex/internal/lockmgr"
)

// TestStreamWALCarriesCommits proves commits flow through the log
// streams: the table update stream and sync stream both accumulate
// records.
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
	tblStream, err := e1.logger.Stream(tableStreamName("DBP1", "ACCT"))
	if err != nil {
		t.Fatal(err)
	}
	// 5 update records on the table stream, 5 COMMIT + 5 END on sync.
	cur, err := tblStream.Browse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != 5 {
		t.Fatalf("table stream has %d records, want 5", cur.Len())
	}
	scur, err := e1.sync.Browse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if scur.Len() != 10 {
		t.Fatalf("sync stream has %d records, want 10", scur.Len())
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
// SYS1 dies with a COMMIT on the sync stream but pages unapplied; SYS2
// browses the merged streams and redoes the changes under the retained
// locks.
func TestStreamPeerRecovery(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	tx := e1.Begin(context.Background())
	tx.Put("ACCT", "gina", []byte("old"))
	tx.Commit()

	// Simulate SYS1 dying mid-commit: log force done (stream writes),
	// pages never applied.
	err := e1.appendLog(context.Background(),
		&LogRecord{Tx: "SYS1-999999", Kind: recUpdate, Table: "ACCT", Key: "gina", Before: []byte("old"), After: []byte("new")},
		&LogRecord{Tx: "SYS1-999999", Kind: recUpdate, Table: "ACCT", Key: "hank", After: []byte("born")},
		&LogRecord{Tx: "SYS1-999999", Kind: recCommit},
	)
	if err != nil {
		t.Fatal(err)
	}
	ls, _ := fx.fac.LockStructure("IRLM")
	ls.SetRecord(context.Background(), "SYS1", e1.recordResource("ACCT", "gina"), cf.Exclusive)
	ls.SetRecord(context.Background(), "SYS1", e1.recordResource("ACCT", "hank"), cf.Exclusive)

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
// fully-ENDed transactions of the failed system and (b) every record
// written by surviving systems, which share the same merged streams.
func TestStreamRecoveryFilters(t *testing.T) {
	fx := newDBFixture(t, "SYS1", "SYS2")
	e1, e2 := fx.engines["SYS1"], fx.engines["SYS2"]
	// Survivor traffic interleaved on the same streams.
	tx := e2.Begin(context.Background())
	tx.Put("ACCT", "keep", []byte("mine"))
	tx.Commit()
	// SYS1: uncommitted (no COMMIT) and fully applied (COMMIT + END).
	e1.appendLog(context.Background(), &LogRecord{Tx: "SYS1-777777", Kind: recUpdate, Table: "ACCT", Key: "ivy", After: []byte("ghost")})
	e1.appendLog(context.Background(),
		&LogRecord{Tx: "SYS1-888888", Kind: recUpdate, Table: "ACCT", Key: "judy", After: []byte("stale")},
		&LogRecord{Tx: "SYS1-888888", Kind: recCommit},
		&LogRecord{Tx: "SYS1-888888", Kind: recEnd},
	)
	fx.plex.PartitionNow("SYS1")
	fx.fac.FailConnector("SYS1")
	rep, err := e2.RecoverPeer(context.Background(), "SYS1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoApplied != 0 {
		t.Fatalf("report = %+v, nothing should be redone", rep)
	}
	tx2 := e2.Begin(context.Background())
	if _, ok, _ := tx2.Get("ACCT", "ivy"); ok {
		t.Fatal("uncommitted change redone")
	}
	if _, ok, _ := tx2.Get("ACCT", "judy"); ok {
		t.Fatal("ended transaction redone")
	}
	if v, ok, _ := tx2.Get("ACCT", "keep"); !ok || string(v) != "mine" {
		t.Fatalf("survivor's record damaged: %q ok=%v", v, ok)
	}
	tx2.Commit()
}
