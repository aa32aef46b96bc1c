package cflink

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/cfrm"
	"sysplex/internal/vclock"
)

// startServer serves a fresh facility named name on a unix socket in
// the test's temp dir and returns the server plus dial coordinates.
func startServer(t *testing.T, name string) (*Server, string, string) {
	t.Helper()
	fac := cf.New(name, vclock.Real())
	srv := NewServer(fac)
	addr := filepath.Join(t.TempDir(), "cf.sock")
	l, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv, "unix", addr
}

func dialT(t *testing.T, network, addr string, opts ...Option) *Client {
	t.Helper()
	c, err := Dial(network, addr, opts...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitFor polls cond until true or the deadline; the notification
// connection is asynchronous by design, so vector assertions wait.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandshake(t *testing.T) {
	_, network, addr := startServer(t, "CF77")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	if c.Name() != "CF77" {
		t.Fatalf("Name() = %q, want CF77 (from handshake)", c.Name())
	}
	if c.System() != "SYSA" {
		t.Fatalf("System() = %q", c.System())
	}
	if c.Failed() {
		t.Fatal("fresh client reports Failed")
	}
}

// TestHandshakeRefusesOtherRevision sends a hello with the previous
// wire revision's magic: kind bytes after lock.records moved when
// lock.adoptretained left the table, so the server must close the
// connection without replying rather than misread that peer's commands.
func TestHandshakeRefusesOtherRevision(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	conn, err := net.Dial(network, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var e encoder
	e.b = append(e.b, 'C', 'F', 'L', '2')
	e.u8(connCommand)
	e.string("SYSA")
	if err := writeFrame(conn, e.b); err != nil {
		t.Fatalf("hello write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if reply, err := readFrame(conn, nil); !errors.Is(err, io.EOF) {
		t.Fatalf("CFL2 hello: reply %x, err %v; want the connection closed with no reply", reply, err)
	}
}

func TestLockOverWire(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()

	lk, err := c.AllocateLockStructure("IGWLOCK00", 64)
	if err != nil {
		t.Fatalf("AllocateLockStructure: %v", err)
	}
	if lk.Entries() != 64 {
		t.Fatalf("Entries() = %d", lk.Entries())
	}
	if err := lk.Connect(ctx, "SYSA"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := lk.Connect(ctx, "SYSB"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	idx := lk.HashResource("DB.T1.ROW9")
	res, err := lk.Obtain(ctx, idx, "SYSA", cf.Exclusive)
	if err != nil || !res.Granted {
		t.Fatalf("Obtain = %+v, %v", res, err)
	}
	// Contention comes back with the holder list for selective
	// negotiation, across the wire.
	res, err = lk.Obtain(ctx, idx, "SYSB", cf.Exclusive)
	if err != nil {
		t.Fatalf("contended Obtain: %v", err)
	}
	if res.Granted || len(res.Holders) != 1 || res.Holders[0] != "SYSA" {
		t.Fatalf("contended Obtain = %+v, want holders [SYSA]", res)
	}
	if err := lk.SetRecord(ctx, "SYSA", "DB.T1.ROW9", cf.Exclusive); err != nil {
		t.Fatalf("SetRecord: %v", err)
	}
	recs, err := lk.Records(ctx, "SYSA")
	if err != nil || len(recs) != 1 || recs[0].Resource != "DB.T1.ROW9" {
		t.Fatalf("Records = %+v, %v", recs, err)
	}
	if err := lk.Release(ctx, idx, "SYSA", cf.Exclusive); err != nil {
		t.Fatalf("Release: %v", err)
	}

	// HashResource must agree with the server-side structure: obtain on
	// the locally computed index and verify interest shows up there.
	share, excl, err := lk.Interest(idx, "SYSB")
	if err != nil || share != 0 || excl != 0 {
		t.Fatalf("Interest = %d/%d, %v", share, excl, err)
	}
}

func TestErrorSentinelsOverWire(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr)
	ctx := context.Background()

	if _, err := c.AllocateLockStructure("S1", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateLockStructure("S1", 8); !errors.Is(err, cf.ErrExists) {
		t.Fatalf("duplicate alloc err = %v, want ErrExists", err)
	}
	lst, err := c.AllocateListStructure("Q", 4, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Connect(ctx, "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lst.Read(ctx, "SYSA", "nope", cf.Cond{}); !errors.Is(err, cf.ErrEntryNotFound) {
		t.Fatalf("missing entry err = %v, want ErrEntryNotFound", err)
	}
	if _, err := lst.Pop(ctx, "nobody", 0, cf.Cond{}); !errors.Is(err, cf.ErrNotConnected) {
		t.Fatalf("unconnected err = %v, want ErrNotConnected", err)
	}
	// Model mismatch surfaces on the command, not the handle.
	rl := cf.LockOn(&remoteStruct{c: c, name: "Q", model: cf.LockModel, size: 8})
	if err := rl.Connect(ctx, "SYSA"); !errors.Is(err, cf.ErrWrongModel) {
		t.Fatalf("wrong model err = %v, want ErrWrongModel", err)
	}

	// Remote failure injection: the CF dies, the link stays up, and
	// the sentinel crosses the wire.
	c.Fail()
	if !c.Failed() {
		t.Fatal("Failed() = false after Fail()")
	}
	if err := lst.Connect(ctx, "SYSB", nil); !errors.Is(err, cf.ErrCFDown) {
		t.Fatalf("command on failed CF err = %v, want ErrCFDown", err)
	}
}

func TestContextGateNeverSendsCancelled(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr)
	lst, err := c.AllocateListStructure("Q", 1, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Connect(context.Background(), "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := lst.Write(ctx, "SYSA", 0, "doomed", "", nil, cf.FIFO, cf.Cond{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Write err = %v, want context.Canceled", err)
	}
	// The command was never sent, so the server must not have it.
	if n := cf.ListOn(srv.Facility().Structure("Q")).TotalEntries(); n != 0 {
		t.Fatalf("cancelled write reached the server: %d entries", n)
	}
}

func TestCacheCrossInvalidateOverWire(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	cA := dialT(t, network, addr, WithSystem("SYSA"))
	cB := dialT(t, network, addr, WithSystem("SYSB"))
	ctx := context.Background()

	if _, err := cA.AllocateCacheStructure("DB2GBP0", 1024); err != nil {
		t.Fatal(err)
	}
	cacheA := cf.CacheOn(cA.Structure("DB2GBP0"))
	cacheB := cf.CacheOn(cB.Structure("DB2GBP0"))

	vecA := cf.NewBitVector(16)
	vecB := cf.NewBitVector(16)
	if err := cacheA.Connect(ctx, "SYSA", vecA); err != nil {
		t.Fatal(err)
	}
	if err := cacheB.Connect(ctx, "SYSB", vecB); err != nil {
		t.Fatal(err)
	}

	// SYSB registers interest in a block: its local validity bit is
	// set by a pushed notification, not a command round trip.
	if _, err := cacheB.ReadAndRegister(ctx, "SYSB", "page7", 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "SYSB validity bit set", func() bool { return vecB.Test(3) })

	// SYSA writes the block: cross-invalidate clears SYSB's bit in
	// SYSB's process, with no software action on SYSB.
	if err := cacheA.WriteAndInvalidate(ctx, "SYSA", "page7", []byte("v2"), true, true, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "SYSB cross-invalidate", func() bool { return !vecB.Test(3) })
	waitFor(t, "SYSA validity bit set", func() bool { return vecA.Test(1) })

	// SYSB re-reads: hit on the globally cached image.
	res, err := cacheB.ReadAndRegister(ctx, "SYSB", "page7", 3)
	if err != nil || !res.Hit || string(res.Data) != "v2" {
		t.Fatalf("re-read = %+v, %v, want hit v2", res, err)
	}
}

func TestListTransitionOverWire(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()

	lst, err := c.AllocateListStructure("MSGQ", 8, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Lists() != 8 {
		t.Fatalf("Lists() = %d", lst.Lists())
	}
	vec := cf.NewBitVector(8)
	if err := lst.Connect(ctx, "SYSA", vec); err != nil {
		t.Fatal(err)
	}
	if err := lst.Monitor(ctx, "SYSA", 5, 5); err != nil {
		t.Fatal(err)
	}
	if vec.Test(5) {
		t.Fatal("bit set before any entry")
	}
	if err := lst.Write(ctx, "SYSA", 5, "m1", "", []byte("hi"), cf.FIFO, cf.Cond{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "list-transition bit", func() bool { return vec.Test(5) })

	le, err := lst.Pop(ctx, "SYSA", 5, cf.Cond{})
	if err != nil || le.ID != "m1" || string(le.Data) != "hi" {
		t.Fatalf("Pop = %+v, %v", le, err)
	}
}

func TestFenceSeversAndRefuses(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	sick := dialT(t, network, addr, WithSystem("SYSB"))
	healthy := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()

	lst, err := healthy.AllocateListStructure("Q", 1, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Connect(ctx, "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	sickQ := cf.ListOn(sick.Structure("Q"))
	if err := sickQ.Connect(ctx, "SYSB", nil); err != nil {
		t.Fatal(err)
	}

	// The healthy peer fences the sick system: its link is severed, so
	// to SYSB the CF is simply down.
	if err := healthy.Fence("SYSB"); err != nil {
		t.Fatalf("Fence: %v", err)
	}
	waitFor(t, "sick client severed", sick.Failed)
	if err := sickQ.Write(ctx, "SYSB", 0, "x", "", nil, cf.FIFO, cf.Cond{}); !errors.Is(err, cf.ErrCFDown) {
		t.Fatalf("fenced write err = %v, want ErrCFDown", err)
	}
	// Reconnect under the fenced name is refused at handshake.
	if _, err := Dial(network, addr, WithSystem("SYSB")); err == nil {
		t.Fatal("fenced system re-dialled successfully")
	}
	if !srv.Fenced("SYSB") {
		t.Fatal("server does not report SYSB fenced")
	}
	// The healthy system is untouched.
	if err := lst.Write(ctx, "SYSA", 0, "y", "", nil, cf.FIFO, cf.Cond{}); err != nil {
		t.Fatalf("healthy write after fence: %v", err)
	}
}

func TestDuplexedOverWire(t *testing.T) {
	srv1, net1, addr1 := startServer(t, "CF01")
	_, net2, addr2 := startServer(t, "CF02")
	c1 := dialT(t, net1, addr1, WithSystem("SYSA"))
	c2 := dialT(t, net2, addr2, WithSystem("SYSA"))
	ctx := context.Background()

	d := cf.NewDuplexed(vclock.Real(), nil, c1, c2)
	lst, err := d.AllocateListStructure("MSGQ", 4, 0, 1024)
	if err != nil {
		t.Fatalf("AllocateListStructure: %v", err)
	}
	if err := lst.Connect(ctx, "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("pre-%d", i)
		if err := lst.Write(ctx, "SYSA", i%4, id, "", []byte(id), cf.FIFO, cf.Cond{}); err != nil {
			t.Fatalf("Write %s: %v", id, err)
		}
	}

	// Kill the primary's *process-side server*: connections sever, the
	// client reports ErrCFDown, and the front fails over in-line.
	srv1.Close()
	for i := 10; i < 20; i++ {
		id := fmt.Sprintf("post-%d", i)
		if err := lst.Write(ctx, "SYSA", i%4, id, "", []byte(id), cf.FIFO, cf.Cond{}); err != nil {
			t.Fatalf("Write %s after primary kill: %v", id, err)
		}
	}
	if d.Primary() != cf.Node(c2) {
		t.Fatalf("primary after failover = %v, want CF02 client", d.Primary().Name())
	}
	if got := d.State(); got != "simplex" {
		t.Fatalf("State() = %q after failover, want simplex", got)
	}

	// Zero lost committed updates: every acked write is on the
	// surviving replica exactly once.
	surviving := cf.ListOn(c2.Structure("MSGQ"))
	if n := surviving.TotalEntries(); n != 20 {
		t.Fatalf("surviving replica has %d entries, want 20", n)
	}
}

func TestCfrmPolicyWithRemoteFleet(t *testing.T) {
	srv1, net1, addr1 := startServer(t, "CF01")
	_, net2, addr2 := startServer(t, "CF02")
	c1 := dialT(t, net1, addr1, WithSystem("SYSA"))
	c2 := dialT(t, net2, addr2, WithSystem("SYSA"))
	ctx := context.Background()

	mgr, err := cfrm.New(cfrm.Policy{Nodes: []cf.Node{c1, c2}}, vclock.Real())
	if err != nil {
		t.Fatalf("cfrm.New: %v", err)
	}
	if got := mgr.Primary().Name(); got != "CF01" {
		t.Fatalf("primary = %q", got)
	}
	if got := mgr.Status().State; got != "duplexed" {
		t.Fatalf("state = %q, want duplexed", got)
	}
	lst, err := mgr.Front().AllocateListStructure("LOGQ", 2, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Connect(ctx, "SYSA", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := lst.Write(ctx, "SYSA", 0, fmt.Sprintf("e%d", i), "", nil, cf.FIFO, cf.Cond{}); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Close()
	// Commands keep working across the failover; the fixed remote
	// fleet is now exhausted, so the pair stays simplex on CF02.
	for i := 5; i < 10; i++ {
		if err := lst.Write(ctx, "SYSA", 0, fmt.Sprintf("e%d", i), "", nil, cf.FIFO, cf.Cond{}); err != nil {
			t.Fatalf("write after failover: %v", err)
		}
	}
	if got := mgr.Primary().Name(); got != "CF02" {
		t.Fatalf("primary after failover = %q", got)
	}
	waitFor(t, "state settles simplex", func() bool { return mgr.Status().State == "simplex" })
	if n := cf.ListOn(c2.Structure("LOGQ")).TotalEntries(); n != 10 {
		t.Fatalf("surviving replica has %d entries, want 10", n)
	}
}

func TestTCPLoopback(t *testing.T) {
	fac := cf.New("CF01", vclock.Real())
	srv := NewServer(fac)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen tcp: %v", err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c := dialT(t, "tcp", l.Addr().String(), WithSystem("SYSA"))
	lk, err := c.AllocateLockStructure("L", 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := lk.Connect(ctx, "SYSA"); err != nil {
		t.Fatal(err)
	}
	res, err := lk.Obtain(ctx, 3, "SYSA", cf.Share)
	if err != nil || !res.Granted {
		t.Fatalf("Obtain over TCP = %+v, %v", res, err)
	}
}

func TestStructureNamesAndDeallocate(t *testing.T) {
	_, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr)
	if _, err := c.AllocateLockStructure("A", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateListStructure("B", 2, 0, 64); err != nil {
		t.Fatal(err)
	}
	names := c.StructureNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("StructureNames = %v", names)
	}
	if c.Structure("A") == nil || c.Structure("A").ReplicaModel() != cf.LockModel {
		t.Fatal("Structure(A) wrong")
	}
	if c.Structure("missing") != nil {
		t.Fatal("Structure(missing) non-nil")
	}
	if err := c.Deallocate("A"); err != nil {
		t.Fatal(err)
	}
	if errors.Is(c.Deallocate("A"), cf.ErrNoStructure) == false {
		t.Fatal("double Deallocate should be ErrNoStructure")
	}
	// Clone across the link is architecturally unsupported.
	if _, err := c.Structure("B").ReplicaCloneInto(cf.New("CFX", vclock.Real())); !errors.Is(err, cf.ErrCloneUnsupported) {
		t.Fatalf("ReplicaCloneInto err = %v, want ErrCloneUnsupported", err)
	}
}

// TestSessionsLeaveNoGoroutines dials and closes a batch of sessions
// and requires the process's goroutine count to return to where it
// started: every session goroutine — the server's serve loop and
// notification writer, the client's two readers — must end with its
// session, whichever side closes it.
func TestSessionsLeaveNoGoroutines(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	if _, err := srv.Facility().AllocateCacheStructure("GBP", 16); err != nil {
		t.Fatal(err)
	}
	// Warm up once so lazily started runtime goroutines are in the
	// baseline.
	c := dialT(t, network, addr)
	c.Close()
	waitFor(t, "warm-up session to drain", func() bool { return sessionCount(srv) == 0 })
	base := runtime.NumGoroutine()

	const sessions = 16
	for i := 0; i < sessions; i++ {
		c, err := Dial(network, addr, WithSystem(fmt.Sprintf("SYS%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		// Attach a vector so the session has pushed notifications.
		vec := cf.NewBitVector(8)
		gbp := cf.CacheOn(c.Structure("GBP"))
		if err := gbp.Connect(context.Background(), c.System(), vec); err != nil {
			t.Fatal(err)
		}
		if _, err := gbp.ReadAndRegister(context.Background(), c.System(), "P", 1); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			c.Close() // client hangs up
		} else {
			srv.Fence(c.System()) // server severs the session
			c.Close()
		}
	}
	waitFor(t, fmt.Sprintf("goroutines to return to %d", base), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

func sessionCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
