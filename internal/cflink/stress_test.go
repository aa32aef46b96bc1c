package cflink

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/vclock"
)

// TestStressNoPartialEffectOverWire drives a duplexed pair of REMOTE
// facilities from many concurrent writers over live TCP sockets, kills
// the primary's server mid-stream (severing connections under
// in-flight commands), and asserts the no-partial-effect guarantee
// holds across the wire:
//
//   - every write acked to a caller is present on the surviving
//     replica exactly once (zero lost committed updates);
//   - every write rejected with a context error was never sent, so it
//     is absent everywhere;
//   - writes that failed with ErrCFDown after retries are allowed to
//     be absent, but never half-applied (the entry either exists with
//     its full payload or not at all).
//
// Run under -race: the point is concurrent clients sharing one session
// while the reader, notifier, and failure paths all fire.
func TestStressNoPartialEffectOverWire(t *testing.T) {
	startTCP := func(name string) (*Server, string) {
		fac := cf.New(name, vclock.Real())
		srv := NewServer(fac)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go srv.Serve(l)
		t.Cleanup(srv.Close)
		return srv, l.Addr().String()
	}
	srv1, addr1 := startTCP("CF01")
	_, addr2 := startTCP("CF02")
	c1 := dialT(t, "tcp", addr1, WithSystem("SYSA"))
	c2 := dialT(t, "tcp", addr2, WithSystem("SYSA"))

	clk := vclock.Real()
	d := cf.NewDuplexed(clk, nil, c1, c2)
	const nLists = 8
	lst, err := d.AllocateListStructure("MSGQ", nLists, 0, 1<<20)
	if err != nil {
		t.Fatalf("AllocateListStructure: %v", err)
	}
	if err := lst.Connect(context.Background(), "SYSA", nil); err != nil {
		t.Fatal(err)
	}

	const (
		nWriters = 8
		perW     = 150
		killAt   = nWriters * perW / 3 // primary dies inside the stream
	)
	var (
		mu        sync.Mutex
		acked     = make(map[string]bool)
		cancelled = make(map[string]bool)
		unknown   = make(map[string]bool)
		total     int
		killOnce  sync.Once
	)

	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				ctx := context.Background()
				// Every 10th op runs pre-cancelled: the client gate must
				// reject it before the frame is sent.
				pre := i%10 == 9
				if pre {
					cc, cancel := context.WithCancel(ctx)
					cancel()
					ctx = cc
				}
				err := lst.Write(ctx, "SYSA", w%nLists, id, "", []byte(id), cf.FIFO, cf.Cond{})
				mu.Lock()
				total++
				if total == killAt {
					killOnce.Do(func() { go srv1.Close() })
				}
				switch {
				case err == nil:
					acked[id] = true
				case errors.Is(err, context.Canceled):
					cancelled[id] = true
				default:
					unknown[id] = true
				}
				mu.Unlock()
				if pre && err == nil {
					t.Errorf("pre-cancelled write %s was acked", id)
				}
			}
		}(w)
	}
	wg.Wait()

	if c1.Failed() != true {
		t.Fatal("primary client still healthy after server kill")
	}
	if d.Primary() != cf.Node(c2) {
		t.Fatalf("primary after kill = %s, want CF02", d.Primary().Name())
	}

	// Allow in-flight mirrors to finish, then audit the surviving
	// replica.
	deadline := time.Now().Add(5 * time.Second)
	surviving := cf.ListOn(c2.Structure("MSGQ"))
	for {
		if surviving.TotalEntries() >= len(acked) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	seen := make(map[string]int)
	for list := 0; list < nLists; list++ {
		for _, e := range surviving.Entries(list) {
			seen[e.ID]++
			if string(e.Data) != e.ID {
				t.Errorf("entry %s has partial payload %q", e.ID, e.Data)
			}
		}
	}
	for id := range acked {
		if seen[id] != 1 {
			t.Errorf("acked write %s present %d times on survivor, want 1", id, seen[id])
		}
	}
	for id := range cancelled {
		if seen[id] != 0 {
			t.Errorf("cancelled write %s present on survivor", id)
		}
	}
	// Unknown-outcome writes (ErrCFDown mid-flight) may or may not
	// have landed; they must not be duplicated.
	for id, n := range seen {
		if n > 1 {
			t.Errorf("entry %s duplicated %d times", id, n)
		}
		if !acked[id] && !unknown[id] {
			t.Errorf("entry %s on survivor but never acked or in-flight", id)
		}
	}
	t.Logf("acked=%d cancelled=%d unknown=%d survivor=%d",
		len(acked), len(cancelled), len(unknown), len(seen))
}

// TestStressConcurrentSessions hammers one server from several
// concurrent sessions (distinct clients) plus concurrent goroutines per
// session, with the cross-invalidate push active, then fences half the
// systems mid-run. Run under -race; the assertions are liveness plus
// session isolation (fencing one system never fails another's
// commands).
func TestStressConcurrentSessions(t *testing.T) {
	fac := cf.New("CF01", vclock.Real())
	srv := NewServer(fac)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().String()

	if _, err := fac.AllocateCacheStructure("GBP", 1<<16); err != nil {
		t.Fatal(err)
	}

	const nSys = 6
	clients := make([]*Client, nSys)
	for i := range clients {
		clients[i] = dialT(t, "tcp", addr, WithSystem(fmt.Sprintf("SYS%d", i)))
	}

	var wg sync.WaitGroup
	errsCh := make(chan error, nSys)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			sys := fmt.Sprintf("SYS%d", i)
			cache := cf.CacheOn(c.Structure("GBP"))
			vec := cf.NewBitVector(64)
			ctx := context.Background()
			if err := cache.Connect(ctx, sys, vec); err != nil {
				errsCh <- fmt.Errorf("%s connect: %w", sys, err)
				return
			}
			fenced := i >= nSys/2
			var inner sync.WaitGroup
			for g := 0; g < 3; g++ {
				inner.Add(1)
				go func(g int) {
					defer inner.Done()
					for k := 0; k < 100; k++ {
						block := fmt.Sprintf("blk-%d", k%16)
						if _, err := cache.ReadAndRegister(ctx, sys, block, k%64); err != nil {
							if fenced && errors.Is(err, cf.ErrCFDown) {
								return // severed as designed
							}
							errsCh <- fmt.Errorf("%s read: %w", sys, err)
							return
						}
						if err := cache.WriteAndInvalidate(ctx, sys, block, []byte(block), true, true, k%64); err != nil {
							if fenced && errors.Is(err, cf.ErrCFDown) {
								return
							}
							errsCh <- fmt.Errorf("%s write: %w", sys, err)
							return
						}
					}
				}(g)
			}
			if fenced && i == nSys-1 {
				// One sick system gets fenced by the first healthy one
				// while everyone is mid-stream.
				srv.Fence(sys)
			}
			inner.Wait()
		}(i, c)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Error(err)
	}
	// Healthy systems must still be live end-to-end.
	for i := 0; i < nSys/2; i++ {
		if clients[i].Failed() {
			t.Errorf("healthy SYS%d severed", i)
		}
	}
}
