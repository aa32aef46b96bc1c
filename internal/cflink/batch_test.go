package cflink

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"

	"sysplex/internal/cf"
)

func TestBatchOverWire(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()

	ls, err := c.AllocateListStructure("WORKQ", 4, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Connect(ctx, "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	errs, err := ls.Batch(ctx, []cf.Cmd{
		{Kind: cf.CmdListWrite, Conn: "SYSA", Name: "e1", Data: []byte("x")},
		{Kind: cf.CmdListWrite, Conn: "SYSA", Idx: 1, Name: "e2", Data: []byte("y")},
		{Kind: cf.CmdListDelete, Conn: "SYSA", Name: "missing"},
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if errs.Errs[0] != nil || errs.Errs[1] != nil {
		t.Fatalf("writes failed: %v, %v", errs.Errs[0], errs.Errs[1])
	}
	// Sentinel identity must survive the wire in a status slot.
	if !errors.Is(errs.Errs[2], cf.ErrEntryNotFound) {
		t.Fatalf("errs[2] = %v, want ErrEntryNotFound", errs.Errs[2])
	}
	// The effects must be visible in the server's facility.
	raw, err := srv.fac.ListStructure("WORKQ")
	if err != nil {
		t.Fatal(err)
	}
	if n := raw.TotalEntries(); n != 2 {
		t.Fatalf("server entries = %d, want 2", n)
	}
}

// TestBatchOversizedFailsCleanSessionSurvives pins the pre-send size
// check: an envelope whose frame would exceed MaxFrame must fail with
// ErrFrameTooBig without poisoning the session — the next command on
// the same client must still work.
func TestBatchOversizedFailsCleanSessionSurvives(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()

	cs, err := c.AllocateCacheStructure("GBP0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Connect(ctx, "SYSA", cf.NewBitVector(8)); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64<<10)
	cmds := make([]cf.Cmd, 0, 20)
	for i := 0; i < 20; i++ { // ~1.25 MiB of payload > MaxFrame
		cmds = append(cmds, cf.Cmd{Kind: cf.CmdCacheWrite, Conn: "SYSA", Name: "BLK" + string(rune('A'+i)), Data: big, Cache: true, Changed: true, VecIdx: i % 8})
	}
	if _, err := cs.Batch(ctx, cmds); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized batch = %v, want ErrFrameTooBig", err)
	}
	if c.Failed() {
		t.Fatal("oversized request killed the session")
	}
	if err := cs.WriteAndInvalidate(ctx, "SYSA", "BLK0", []byte("ok"), true, false, 0); err != nil {
		t.Fatalf("command after oversized batch: %v", err)
	}
}

// rawCommandConn dials the server and performs the command handshake by
// hand so tests can send hand-crafted frames.
func rawCommandConn(t *testing.T, network, addr, system string) net.Conn {
	t.Helper()
	conn, err := net.Dial(network, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	var e encoder
	e.b = append(e.b, magic[0], magic[1], magic[2], magic[3])
	e.u8(connCommand)
	e.string(system)
	if err := writeFrame(conn, e.b); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	hello, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("handshake read: %v", err)
	}
	d := &decoder{b: hello}
	if code := d.u8(); code != codeOK {
		t.Fatalf("handshake code = %d", code)
	}
	return conn
}

// readReply reads one response frame and returns its request ID, status
// code, and the remaining payload decoder.
func readReply(t *testing.T, conn net.Conn) (uint64, uint8, *decoder) {
	t.Helper()
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	d := &decoder{b: payload}
	reqID := d.uvarint()
	code := d.u8()
	if d.err != nil {
		t.Fatalf("reply header: %v", d.err)
	}
	return reqID, code, d
}

// TestBatchTruncatedCountMalformed sends a batch frame whose subcommand
// count promises more than the payload carries. The server must answer
// with a clean error on the same request ID and keep serving.
func TestBatchTruncatedCountMalformed(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	if _, err := srv.fac.AllocateListStructure("WORKQ", 4, 0, 100); err != nil {
		t.Fatal(err)
	}
	conn := rawCommandConn(t, network, addr, "SYSA")

	var e encoder
	e.uvarint(7) // request ID
	e.u8(opExec)
	e.string("WORKQ")
	e.u8(uint8(cf.CmdBatch))
	e.uvarint(500) // promises 500 subcommands, carries none
	if err := writeFrame(conn, e.b); err != nil {
		t.Fatal(err)
	}
	reqID, code, _ := readReply(t, conn)
	if reqID != 7 || code == codeOK {
		t.Fatalf("reply = id %d code %d, want id 7 and an error code", reqID, code)
	}

	// The session must still be alive.
	var e2 encoder
	e2.uvarint(8)
	e2.u8(opStructureNames)
	if err := writeFrame(conn, e2.b); err != nil {
		t.Fatal(err)
	}
	reqID, code, d := readReply(t, conn)
	if reqID != 8 || code != codeOK {
		t.Fatalf("follow-up reply = id %d code %d", reqID, code)
	}
	names := d.strings()
	if len(names) != 1 || names[0] != "WORKQ" {
		t.Fatalf("names = %v", names)
	}
}

// TestDuplicateRequestIDsBothAnswered sends two concurrent requests
// reusing one request ID. IDs are a client-side correlation convention,
// not server state: the server must answer each frame it got, carrying
// the ID it came with, and the session must survive.
func TestDuplicateRequestIDsBothAnswered(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	conn := rawCommandConn(t, network, addr, "SYSA")

	for i := 0; i < 2; i++ {
		var e encoder
		e.uvarint(42)
		e.u8(opStructureNames)
		if err := writeFrame(conn, e.b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		reqID, code, _ := readReply(t, conn)
		if reqID != 42 || code != codeOK {
			t.Fatalf("reply %d = id %d code %d, want id 42 codeOK", i, reqID, code)
		}
	}
	var e encoder
	e.uvarint(43)
	e.u8(opFailed)
	if err := writeFrame(conn, e.b); err != nil {
		t.Fatal(err)
	}
	reqID, code, d := readReply(t, conn)
	if reqID != 43 || code != codeOK || d.bool() {
		t.Fatalf("post-duplicate request: id %d code %d", reqID, code)
	}
}

// TestBatchCodecRoundTrip pins the wire form of an envelope carrying
// every command of the table: encode → decode must be identity.
func TestBatchCodecRoundTrip(t *testing.T) {
	vecs := newVecMap()
	env := cf.Cmd{Kind: cf.CmdBatch}
	for _, k := range allKinds() {
		if k != cf.CmdBatch {
			env.Sub = append(env.Sub, fillCmd(k, "SYSA"))
		}
	}
	var e encoder
	e.cmd(&env, vecs.id)
	d := &decoder{b: e.b}
	got := d.cmd(vecs.vec, false)
	if err := d.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("decoded envelope differs:\n got %+v\nwant %+v", got, env)
	}
}
