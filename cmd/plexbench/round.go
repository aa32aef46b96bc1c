package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sysplex"
	"sysplex/internal/cf"
	"sysplex/internal/cflink"
	"sysplex/internal/logr"
)

// roundLimit bounds each phase of a round (preload, warm-up, window,
// verification, probes) in wall-clock time, so a lost wake-up or a
// deadlock aborts the run with the workload named instead of hanging the
// pipeline. A variable only so that the test can shorten it.
var roundLimit = 60 * time.Second

// probeStream is the benchmark-owned log stream the logr probe writes.
const probeStream = "PLEXBENCH.PROBE"

// env is one round's complex and everything it holds open.
type env struct {
	w       workload
	dir     string       // scratch directory of this round
	stop    *atomic.Bool // set on SIGINT or by the watchdog
	cfg     sysplex.Config
	plex    *sysplex.Sysplex
	systems []*sysplex.System
	servers []*cflink.Server // link only
	links   []*cflink.Client // link only

	// owned is the key layout, learnt after preload (see layout): per
	// client the accounts it may touch — on hot-mem the same hotKeys
	// keys, one per page, for every client.
	owned [][]uint16
}

// buildEnv brings up a fresh sysplex for w under dir.
func buildEnv(ctx context.Context, w workload, dir string, stop *atomic.Bool) (_ *env, err error) {
	e := &env{w: w, dir: dir, stop: stop}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := sysplex.DefaultConfig("PLEX1", 4)
	cfg.Background = false
	cfg.VolumeBlocks = volumeBlocks
	cfg.Tables = []sysplex.TableConfig{{Name: table, Pages: tablePages}}
	cfg.LogStreams = []logr.StreamSpec{{Name: probeStream}}
	if w.disk {
		cfg.DataDir = filepath.Join(dir, "dasd")
	}
	if w.hot {
		// A wake-up that reaches a system before its waiter is queued
		// is lost (ROADMAP, blocking lock path), and the waiter then
		// sleeps out LockTimeout before txmgr retries it. At the
		// default 5 s one such stall is most of a window; real waits
		// here are a commit long, well under this.
		cfg.LockTimeout = hotLockTimeout
	}
	if w.link {
		for _, name := range []string{"CF01", "CF02"} {
			// A relative socket path: the checkout may sit deeper than
			// the 108 bytes a unix socket address can hold.
			sock := filepath.Join(dir, name+".sock")
			if cwd, err := os.Getwd(); err == nil {
				if rel, err := filepath.Rel(cwd, sock); err == nil && len(rel) < len(sock) {
					sock = rel
				}
			}
			l, err := net.Listen("unix", sock)
			if err != nil {
				return nil, err
			}
			srv := cflink.NewServer(cf.New(name, nil))
			e.servers = append(e.servers, srv)
			go srv.Serve(l) // returns once close() closes the server
			c, err := cflink.Dial("unix", sock, cflink.WithSystem("PLEX1"))
			if err != nil {
				return nil, err
			}
			e.links = append(e.links, c)
			cfg.CF.Nodes = append(cfg.CF.Nodes, c)
		}
	}
	e.cfg = cfg
	if e.plex, err = sysplex.New(ctx, cfg); err != nil {
		return nil, err
	}
	return e, e.bind()
}

// bind resolves the member systems of e.plex.
func (e *env) bind() error {
	e.systems = e.systems[:0]
	for _, sc := range e.cfg.Systems {
		s, err := e.plex.System(sc.Name)
		if err != nil {
			return err
		}
		e.systems = append(e.systems, s)
	}
	return nil
}

// stopPlex stops the complex. Stop leaves each member's XCF dispatcher
// goroutine running, and through it the whole complex reachable —
// hundreds of MB of memory DASD per round that every later GC cycle in
// the process would have to mark; killing the stopped members ends the
// dispatchers.
func (e *env) stopPlex() {
	if e.plex == nil {
		return
	}
	e.plex.Stop()
	for _, sc := range e.cfg.Systems {
		e.plex.KillSystem(sc.Name)
	}
	e.plex, e.systems = nil, nil
}

// close stops the complex and removes everything the round created.
func (e *env) close() {
	e.stopPlex()
	for _, c := range e.links {
		c.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
	os.RemoveAll(e.dir)
}

// client is one closed-loop terminal: it submits its next transaction
// only after the reply to the previous one.
type client struct {
	id     int
	inputs [][]byte // per account: client byte + key
	buf    []byte   // SETBAL input scratch

	// Expected state. Partitioned workloads: the balance of each own
	// account, and how many deposits on it ended in an error and so may
	// or may not have committed.
	bal    []int64
	unsure []int64
	// hot-mem: this client's write sequence, its last acknowledged
	// write per key, and per (key, writer) the newest sequence read.
	seq   int64
	hot   []uint16
	acked [hotKeys]int64
	seen  [hotKeys][]int64

	lat       []int64   // ns, successful transactions only
	endAt     []int64   // ns from the pass's start to each reply in lat
	end       time.Time // when the pass's last transaction finished
	attempted int
	failed    int
	castoutNs int64
	castouts  int
	bad       string // first correctness violation
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for c := range cs {
		cl := &client{id: c, bal: make([]int64, accounts), unsure: make([]int64, accounts)}
		for k := 0; k < accounts; k++ {
			cl.inputs = append(cl.inputs, append([]byte{byte(c)}, keyName(uint16(k))...))
			cl.bal[k] = preloadBal + int64(k)
		}
		for k := range cl.seen {
			cl.seen[k] = make([]int64, n)
		}
		cs[c] = cl
	}
	return cs
}

// slot is the index of hot key k in the checker's per-key state.
func (c *client) slot(k uint16) int {
	for i, h := range c.hot {
		if h == k {
			return i
		}
	}
	panic("plexbench: " + keyName(k) + " is not a hot key")
}

// startPass clears the per-pass measurements and keeps the expected
// state.
func (c *client) startPass(n int) {
	c.lat = make([]int64, 0, n)
	c.endAt = make([]int64, 0, n)
	c.attempted, c.failed, c.castoutNs, c.castouts = 0, 0, 0, 0
}

// input builds the program input of o.
func (c *client) input(o op) []byte {
	if o.prog != progSetBal {
		return c.inputs[o.key]
	}
	c.seq++
	c.buf = append(c.buf[:0], c.inputs[o.key]...)
	c.buf = strconv.AppendInt(c.buf, int64(c.id), 10)
	c.buf = append(c.buf, ':')
	c.buf = strconv.AppendInt(c.buf, c.seq, 10)
	return c.buf
}

func (c *client) violation(format string, a ...any) bool {
	if c.bad == "" {
		c.bad = fmt.Sprintf(format, a...)
	}
	return false
}

// check judges one reply against the expected state and advances it.
// It reports whether the transaction succeeded.
func (c *client) check(w workload, o op, in, out []byte, err error) bool {
	key := keyName(o.key)
	if err != nil {
		if o.prog == progDeposit {
			c.unsure[o.key]++
		}
		return c.violation("%s %s: %v", progNames[o.prog], key, err)
	}
	if w.hot {
		return c.checkHot(o, in, out)
	}
	got, perr := strconv.ParseInt(string(out), 10, 64)
	if perr != nil {
		return c.violation("%s %s: reply %q", progNames[o.prog], key, out)
	}
	want := c.bal[o.key]
	if o.prog == progDeposit {
		want++
	}
	// Deposits that errored may have committed: accept them once, then
	// the reply is the new truth.
	if got < want || got > want+c.unsure[o.key] {
		return c.violation("%s %s: reply %d, expected %d", progNames[o.prog], key, got, want)
	}
	c.bal[o.key], c.unsure[o.key] = got, 0
	return true
}

// checkHot: a write is acknowledged with its own value; a read must
// return the preload or a value some client wrote, and for one reader
// one writer's sequence on a key never goes backwards.
func (c *client) checkHot(o op, in, out []byte) bool {
	key, k := keyName(o.key), c.slot(o.key)
	if o.prog == progSetBal {
		if !bytes.Equal(out, in[9:]) {
			return c.violation("SETBAL %s: reply %q, wrote %q", key, out, in[9:])
		}
		c.acked[k] = c.seq
		return true
	}
	writer, seq, ok := parseHot(out, len(c.seen[k]))
	if !ok {
		if string(out) != strconv.Itoa(preloadBal+int(o.key)) {
			return c.violation("BALANCE %s: %q was never written", key, out)
		}
		writer, seq = 0, 0
	}
	if writer == c.id && seq > c.seq {
		return c.violation("BALANCE %s: %q is ahead of its writer", key, out)
	}
	if seq < c.seen[k][writer] {
		return c.violation("BALANCE %s: writer %d went back from %d to %d", key, writer, c.seen[k][writer], seq)
	}
	c.seen[k][writer] = seq
	return true
}

// parseHot splits a hot-mem value "<writer>:<seq>".
func parseHot(v []byte, clients int) (writer int, seq int64, ok bool) {
	i := bytes.IndexByte(v, ':')
	if i < 0 {
		return 0, 0, false
	}
	w, err1 := strconv.Atoi(string(v[:i]))
	s, err2 := strconv.ParseInt(string(v[i+1:]), 10, 64)
	if err1 != nil || err2 != nil || w < 0 || w >= clients || s < 1 {
		return 0, 0, false
	}
	return w, s, true
}

var errWatchdog = errors.New("phase exceeded its wall-clock limit")

// watch runs fn once per client, concurrently, and returns the first
// error. A phase that outlives roundLimit is abandoned, not joined: the
// stuck goroutines die with the process, which exits non-zero.
func (e *env) watch(clients []*client, fn func(c *client) error) error {
	stop := e.stop
	errs := make(chan error, len(clients))
	for _, c := range clients {
		go func(c *client) { errs <- fn(c) }(c)
	}
	limit := time.NewTimer(roundLimit)
	defer limit.Stop()
	var first error
	for range clients {
		select {
		case err := <-errs:
			if first == nil {
				first = err
			}
		case <-limit.C:
			stop.Store(true)
			return errWatchdog
		}
	}
	if first == nil && stop.Load() {
		first = errors.New("interrupted")
	}
	return first
}

// submitFn sends one transaction for a client and returns the reply.
type submitFn func(c *client, program string, input []byte) ([]byte, error)

// drive runs every client's ops closed-loop until the ops are done or
// the deadline passes (zero: none), and returns the wall time from the
// common start to the last client's finish. On errWatchdog the clients
// are still running and must not be read; the error says how many
// transactions were left, which count as failed.
func (e *env) drive(clients []*client, ops [][]op, deadline time.Time, submit submitFn) (time.Duration, error) {
	var done atomic.Int64
	planned := 0
	for i, c := range clients {
		c.startPass(len(ops[i]))
		planned += len(ops[i])
	}
	start := time.Now()
	err := e.watch(clients, func(c *client) error {
		for n, o := range ops[c.id] {
			if e.stop.Load() {
				break
			}
			in := c.input(o)
			t0 := time.Now()
			out, err := submit(c, progNames[o.prog], in)
			t1 := time.Now()
			c.attempted++
			done.Add(1)
			if c.check(e.w, o, in, out, err) {
				c.lat = append(c.lat, int64(t1.Sub(t0)))
				c.endAt = append(c.endAt, int64(t1.Sub(start)))
			} else {
				c.failed++
			}
			if (n+1)%castoutEvery == 0 {
				sys := e.systems[(c.id+n/castoutEvery)%len(e.systems)]
				if _, err := sys.Engine().CastoutOnce(context.Background(), castoutMax); err != nil {
					c.violation("castout on %s: %v", sys.Name(), err)
				}
				c.castouts++
				now := time.Now()
				c.castoutNs += int64(now.Sub(t1))
				t1 = now
			}
			if !deadline.IsZero() && t1.After(deadline) {
				break
			}
		}
		c.end = time.Now()
		return nil
	})
	if errors.Is(err, errWatchdog) {
		return 0, fmt.Errorf("%w (%v): %d of %d transactions unfinished, counted as failed", err, roundLimit, int64(planned)-done.Load(), planned)
	}
	last := start
	for _, c := range clients {
		if c.end.After(last) {
			last = c.end
		}
	}
	return last.Sub(start), err
}

// preload writes every account's opening balance through the front
// door, one at a time: concurrent transactions on one page are what
// layout exists to avoid.
func (e *env) preload(clients []*client) error {
	return e.watch(clients[:1], func(c *client) error {
		for k := 0; k < accounts && !e.stop.Load(); k++ {
			in := strconv.AppendInt(append([]byte(nil), c.inputs[k]...), preloadBal+int64(k), 10)
			if _, err := e.plex.SubmitViaLogon(context.Background(), progNames[progSetBal], in); err != nil {
				return fmt.Errorf("preload %s: %w", keyName(uint16(k)), err)
			}
		}
		return nil
	})
}

// layout learns which page holds each account (a page scan, so the
// harness does not repeat the engine's hash) and arranges that two
// transactions share a page only when they share a key, where the
// record lock orders them: client c owns the accounts on pages with
// page % clients == c, and the hot keys sit on hotKeys different pages.
// It then reads one key of every page on every system, one at a time,
// so each local pool holds a frame for each page before clients run
// side by side. Both guard against stale frames the buffer manager can
// install under concurrency (README, findings), which would make
// balances wrong at random.
func (e *env) layout(clients []*client) error {
	return e.watch(clients[:1], func(*client) error { return e.layoutSerial(clients) })
}

func (e *env) layoutSerial(clients []*client) error {
	ctx := context.Background()
	e.owned = make([][]uint16, len(clients))
	var first []uint16 // one key per page
	found := 0
	for page := 0; page < tablePages; page++ {
		n := 0
		err := e.systems[0].Engine().ScanPages(ctx, "PLEXBENCH", table, page, page+1, func(key string, _ []byte) bool {
			k := uint16(keyIndex(key))
			if n == 0 {
				first = append(first, k)
			}
			n++
			e.owned[page%len(clients)] = append(e.owned[page%len(clients)], k)
			return true
		})
		if err != nil {
			return fmt.Errorf("layout: page %d: %w", page, err)
		}
		found += n
	}
	if found != accounts || len(first) < hotKeys {
		return fmt.Errorf("layout: found %d of %d accounts on %d pages", found, accounts, len(first))
	}
	for c, cl := range clients {
		if e.w.hot {
			e.owned[c], cl.hot = first[:hotKeys], first[:hotKeys]
		}
		sort.Slice(e.owned[c], func(i, j int) bool { return e.owned[c][i] < e.owned[c][j] })
	}
	for _, sys := range e.systems {
		for _, k := range first {
			if _, err := e.plex.Submit(ctx, sys.Name(), progNames[progBalance], clients[0].inputs[k]); err != nil {
				return fmt.Errorf("layout: %s on %s: %w", keyName(k), sys.Name(), err)
			}
		}
	}
	return nil
}

func keyIndex(key string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(key, "acct"))
	return n
}

// verify re-reads every account after a pass and compares it with what
// the clients saw acknowledged.
func (e *env) verify(clients []*client) error {
	return e.watch(clients[:1], func(*client) error { return e.verifySerial(clients) })
}

func (e *env) verifySerial(clients []*client) error {
	owner := make([]*client, accounts)
	for c, keys := range e.owned {
		for _, k := range keys {
			owner[k] = clients[c]
		}
	}
	for k := 0; k < accounts; k++ {
		out, err := e.plex.SubmitViaLogon(context.Background(), progNames[progBalance], clients[0].inputs[k])
		if err != nil {
			return fmt.Errorf("verify %s: %w", keyName(uint16(k)), err)
		}
		lo, slack := preloadBal+int64(k), int64(0)
		if e.w.hot {
			if owner[k] != nil {
				if err := verifyHot(clients, clients[0].slot(uint16(k)), uint16(k), out); err != nil {
					return err
				}
				continue
			}
		} else {
			lo, slack = owner[k].bal[k], owner[k].unsure[k]
		}
		got, err := strconv.ParseInt(string(out), 10, 64)
		if err != nil || got < lo || got > lo+slack {
			return fmt.Errorf("verify %s: balance %q, acknowledged %d", keyName(uint16(k)), out, lo)
		}
	}
	if e.w.link {
		for _, s := range e.servers {
			if s.Facility().Metrics().Counter("cf.cmd.cache.write").Value() == 0 {
				return fmt.Errorf("verify: facility %s saw no mutation, the pair is not duplexed", s.Facility().Name())
			}
		}
	}
	return nil
}

// verifyHot: the final value of a hot key is its writer's last
// acknowledged write there (or a later one that ended in an error).
func verifyHot(clients []*client, slot int, key uint16, out []byte) error {
	wrote := false
	for _, c := range clients {
		wrote = wrote || c.acked[slot] > 0
	}
	writer, seq, ok := parseHot(out, len(clients))
	if !ok {
		if !wrote && string(out) == strconv.Itoa(preloadBal+int(key)) {
			return nil
		}
		return fmt.Errorf("verify %s: %q was never written", keyName(key), out)
	}
	if c := clients[writer]; seq < c.acked[slot] || seq > c.seq {
		return fmt.Errorf("verify %s: final %q, writer %d acknowledged %d", keyName(key), out, writer, c.acked[slot])
	}
	return nil
}

// roundResult is what one round measured.
type roundResult struct {
	setup     time.Duration // build + preload + warm-up + GC
	window    time.Duration
	attempted int
	failed    int
	lat       []int64 // ns, pooled over clients
	endAt     []int64 // ns into the window, parallel to lat
	alloc     uint64  // bytes allocated in the window
	mallocs   uint64
	gcPauseNs uint64
	liveHeap  uint64 // after runtime.GC() at round end
	castoutNs int64
	castouts  int
	reopen    time.Duration // disk, last round: sysplex.Open
}

func (r roundResult) ok() int { return r.attempted - r.failed }

// roundPlan says how one round runs.
type roundPlan struct {
	w       workload
	seed    int64
	round   int
	clients int
	count   int           // transactions in the window, all clients
	warmup  int           // warm-up transactions, all clients
	budget  time.Duration // window deadline (0: run the whole count)
	dir     string
	lay     *layerPass // non-nil: the traced round
	reopen  bool       // disk: Stop, sysplex.Open and re-verify at the end
	stop    *atomic.Bool
}

// runRound is one round: fresh sysplex → programs → preload → warm-up →
// GC → timed window → verification.
func runRound(ctx context.Context, p roundPlan) (res roundResult, err error) {
	t0 := time.Now()
	e, err := buildEnv(ctx, p.w, p.dir, p.stop)
	if err != nil {
		return res, err
	}
	defer func() { e.close() }()
	var tr *tracer
	if p.lay != nil {
		tr = p.lay.tr
	}
	registerPrograms(e.plex, tr)
	clients := newClients(p.clients)
	if err := e.preload(clients); err != nil {
		return res, err
	}
	if err := e.layout(clients); err != nil {
		return res, err
	}
	split := func(round, total int) [][]op {
		ops := make([][]op, p.clients)
		for c := range ops {
			ops[c] = genOps(p.w, p.seed, round, c, total/p.clients, e.owned[c])
		}
		return ops
	}
	// hot-mem pins client c to system c: two transactions on one system
	// racing for one lock can both be granted (README, findings), so its
	// contention is kept cross-system, which is what it is there to
	// measure. It still pays the logon and logoff.
	submit := submitFn(func(_ *client, program string, in []byte) ([]byte, error) {
		return e.plex.SubmitViaLogon(context.Background(), program, in)
	})
	if p.w.hot {
		submit = e.submitSteps(nil, true)
	}
	if _, err := e.drive(clients, split(-1-p.round, p.warmup), time.Time{}, submit); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	for _, c := range clients {
		if c.failed > 0 {
			return res, fmt.Errorf("warm-up: %s", c.bad)
		}
	}
	ops := split(p.round, p.count)
	if tr != nil {
		tr.reset(p.clients, p.count/p.clients)
		submit = e.submitSteps(tr, p.w.hot)
	}
	runtime.GC()
	res.setup = time.Since(t0)
	if p.lay != nil {
		p.lay.beforeWindow(e)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var deadline time.Time
	if p.budget > 0 {
		deadline = time.Now().Add(p.budget)
	}
	window, err := e.drive(clients, ops, deadline, submit)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return res, err
	}
	for _, c := range clients {
		res.attempted += c.attempted
		res.failed += c.failed
		res.lat = append(res.lat, c.lat...)
		res.endAt = append(res.endAt, c.endAt...)
		res.castoutNs += c.castoutNs
		res.castouts += c.castouts
	}
	res.window = window
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for _, c := range clients {
		if c.bad != "" {
			return res, errors.New(c.bad)
		}
	}
	if err := e.verify(clients); err != nil {
		return res, err
	}
	if p.lay != nil {
		if err := p.lay.afterWindow(e, clients, p); err != nil {
			return res, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = m1.HeapAlloc
	if p.reopen {
		e.stopPlex()
		t := time.Now()
		if e.plex, err = sysplex.Open(ctx, e.cfg); err != nil {
			return res, fmt.Errorf("reopen: %w", err)
		}
		res.reopen = time.Since(t)
		if err := e.bind(); err != nil {
			return res, err
		}
		registerPrograms(e.plex, nil)
		if err := e.verify(clients); err != nil {
			return res, fmt.Errorf("after reopen: %w", err)
		}
	}
	return res, nil
}
