// Package txmgr implements a CICS-style transaction manager region per
// system, with dynamic transaction routing (§2.3, §5.2): work normally
// executes on the system where it arrives, but when that system is
// over-utilized relative to its peers the region ships the request to a
// WLM-recommended system over XCF, transparently to the application.
//
// The package also provides the decision-support pattern of §2.3:
// complex scan queries are broken into page-range sub-queries that run
// in parallel across the sysplex, and the region aggregates the
// answers.
package txmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sysplex/internal/db"
	"sysplex/internal/lockmgr"
	"sysplex/internal/metrics"
	"sysplex/internal/vclock"
	"sysplex/internal/wire"
	"sysplex/internal/wlm"
	"sysplex/internal/xcf"
)

// Errors returned by the region.
var (
	ErrNoProgram = errors.New("txmgr: program not registered")
	ErrShipped   = errors.New("txmgr: remote execution failed")
	ErrTimeout   = errors.New("txmgr: remote response timed out")
)

const service = "cics"

// ServiceClass is the WLM service class OLTP work reports under.
const ServiceClass = "ONLINE"

// Program is application logic executed under a database transaction.
// It must be registered identically on every region ("applications
// unchanged": the same program runs anywhere in the sysplex).
type Program func(tx *db.Tx, input []byte) ([]byte, error)

// Stats counts region activity.
type Stats struct {
	Submitted  int64
	LocalRuns  int64
	RoutedOut  int64 // shipped to another system
	RoutedIn   int64 // received from another system
	Completed  int64
	Failed     int64
	Retries    int64 // deadlock/timeout retries
	SubQueries int64 // decision-support fragments executed here
}

const (
	// routeThreshold is the local utilization above which the region
	// considers routing away.
	routeThreshold = 0.85
	// routeAdvantage is the relative spare-capacity advantage a peer
	// must have to win the work.
	routeAdvantage = 1.25
	// remoteTimeout bounds shipped-request waits.
	remoteTimeout = 10 * time.Second
	// maxRetries bounds reruns of deadlock and timeout victims.
	maxRetries = 3
)

// Region is one system's transaction manager.
type Region struct {
	sys    *xcf.System
	engine *db.Engine
	wlm    *wlm.Manager
	clock  vclock.Clock
	reg    *metrics.Registry

	mu       sync.Mutex
	programs map[string]programDef
	pending  map[uint64]chan wireResp
	nextReq  uint64
	stats    Stats
}

type programDef struct {
	fn      Program
	service float64 // MIPS-seconds charged to WLM per execution
}

// New creates the region for a system.
func New(system *xcf.System, engine *db.Engine, wlmMgr *wlm.Manager, clock vclock.Clock) *Region {
	if clock == nil {
		clock = vclock.Real()
	}
	r := &Region{
		sys:      system,
		engine:   engine,
		wlm:      wlmMgr,
		clock:    clock,
		reg:      metrics.NewRegistry(),
		programs: make(map[string]programDef),
		pending:  make(map[uint64]chan wireResp),
	}
	system.BindService(service, r.handleMessage)
	return r
}

// System returns the owning system name.
func (r *Region) System() string { return r.sys.Name() }

// Stats returns a snapshot of counters.
func (r *Region) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Metrics exposes the region's latency instrumentation.
func (r *Region) Metrics() *metrics.Registry { return r.reg }

// RegisterProgram installs application logic under a transaction code.
// serviceMIPSsec is the processor service charged to WLM per run.
func (r *Region) RegisterProgram(name string, serviceMIPSsec float64, fn Program) {
	r.mu.Lock()
	r.programs[name] = programDef{fn: fn, service: serviceMIPSsec}
	r.mu.Unlock()
}

// Submit runs a transaction: locally in the normal case, or shipped to
// a less-utilized system when this one is overloaded. The decision is
// invisible to the caller (dynamic transaction routing).
func (r *Region) Submit(ctx context.Context, program string, input []byte) ([]byte, error) {
	start := r.clock.Now()
	r.bump(func(s *Stats) { s.Submitted++ })
	target := r.routeTarget()
	var out []byte
	var err error
	if target == r.System() {
		r.bump(func(s *Stats) { s.LocalRuns++ })
		out, err = r.runLocal(ctx, program, input)
	} else {
		r.bump(func(s *Stats) { s.RoutedOut++ })
		out, err = r.ship(ctx, target, program, input)
	}
	elapsed := r.clock.Since(start)
	r.reg.Histogram("tx.response").Observe(elapsed)
	if err != nil {
		r.bump(func(s *Stats) { s.Failed++ })
		return nil, err
	}
	r.bump(func(s *Stats) { s.Completed++ })
	if r.wlm != nil {
		r.mu.Lock()
		def := r.programs[program]
		r.mu.Unlock()
		r.wlm.ReportWork(ServiceClass, elapsed, def.service)
	}
	return out, nil
}

// routeTarget picks where the transaction runs. Work stays local unless
// the local system is hot and a peer has a clear capacity advantage.
func (r *Region) routeTarget() string {
	self := r.System()
	if r.wlm == nil {
		return self
	}
	avail := r.wlm.AvailableCapacity()
	localAvail, ok := avail[self]
	if !ok {
		return self
	}
	localCap := r.wlm.Capacity()
	if localCap <= 0 || (localCap-localAvail)/localCap < routeThreshold {
		return self
	}
	best, bestAvail := self, localAvail
	for sysName, a := range avail {
		if a > bestAvail {
			best, bestAvail = sysName, a
		}
	}
	if best == self {
		return self
	}
	if localAvail <= 0 || bestAvail >= routeAdvantage*localAvail {
		return best
	}
	return self
}

// runLocal executes the program under a transaction with deadlock
// retry.
func (r *Region) runLocal(ctx context.Context, program string, input []byte) ([]byte, error) {
	r.mu.Lock()
	def, ok := r.programs[program]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoProgram, program)
	}
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		tx := r.engine.Begin(ctx)
		out, err := def.fn(tx, input)
		if err != nil {
			tx.Abort()
			if errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) {
				lastErr = err
				r.bump(func(s *Stats) { s.Retries++ })
				continue
			}
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			if errors.Is(err, lockmgr.ErrDeadlock) || errors.Is(err, lockmgr.ErrTimeout) {
				lastErr = err
				r.bump(func(s *Stats) { s.Retries++ })
				continue
			}
			return nil, err
		}
		return out, nil
	}
	return nil, lastErr
}

func (r *Region) bump(fn func(*Stats)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// --- function shipping over XCF ---

type wireKind uint8

// lintwire: table txkinds
const (
	kindRun   wireKind = 1
	kindResp  wireKind = 2
	kindQuery wireKind = 3
	kindQResp wireKind = 4
)

type wireMsg struct {
	Kind    wireKind
	Req     uint64
	Program string
	Input   []byte
	Output  []byte
	Error   string

	// decision-support sub-query fields
	Table  string
	Lo     int
	Hi     int
	Op     string
	Prefix string
	Count  int64
	Sum    int64
}

// A message's XCF payload: layout byte, then every field in declaration
// order as wire fields.
const msgLayout = 1

func (m *wireMsg) encode() []byte {
	e := wire.Record(msgLayout, 32+len(m.Program)+len(m.Input)+len(m.Output)+len(m.Error)+len(m.Table)+len(m.Op)+len(m.Prefix))
	e.U8(uint8(m.Kind))
	e.Uvarint(m.Req)
	e.Str(m.Program)
	e.Bytes(m.Input)
	e.Bytes(m.Output)
	e.Str(m.Error)
	e.Str(m.Table)
	e.Int(m.Lo)
	e.Int(m.Hi)
	e.Str(m.Op)
	e.Str(m.Prefix)
	e.Varint(m.Count)
	e.Varint(m.Sum)
	return e.Buf
}

func decodeMsg(raw []byte) (wireMsg, error) {
	d := wire.OpenRecord(raw, msgLayout)
	m := wireMsg{
		Kind: wireKind(d.U8()), Req: d.Uvarint(),
		Program: d.Str(), Input: d.Bytes(), Output: d.Bytes(), Error: d.Str(),
		Table: d.Str(), Lo: d.Int(), Hi: d.Int(), Op: d.Str(), Prefix: d.Str(),
		Count: d.Varint(), Sum: d.Varint(),
	}
	return m, d.Finish()
}

type wireResp struct {
	output []byte
	err    string
	count  int64
	sum    int64
}

// ship sends the request to a peer region and waits for the answer.
func (r *Region) ship(ctx context.Context, target, program string, input []byte) ([]byte, error) {
	resp, err := r.call(ctx, target, wireMsg{Kind: kindRun, Program: program, Input: input})
	if err != nil {
		return nil, err
	}
	if resp.err != "" {
		return nil, fmt.Errorf("%w on %s: %s", ErrShipped, target, resp.err)
	}
	return resp.output, nil
}

func (r *Region) call(ctx context.Context, target string, msg wireMsg) (wireResp, error) {
	r.mu.Lock()
	r.nextReq++
	msg.Req = r.nextReq
	ch := make(chan wireResp, 1)
	r.pending[msg.Req] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, msg.Req)
		r.mu.Unlock()
	}()
	if err := r.sys.Send(target, service, msg.encode()); err != nil {
		return wireResp{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return wireResp{}, ctx.Err()
	case <-r.clock.After(remoteTimeout):
		return wireResp{}, fmt.Errorf("%w: %s", ErrTimeout, target)
	}
}

// handleMessage processes inbound region protocol traffic. Remote work
// runs on its own goroutine so the XCF dispatcher is never blocked by
// database lock waits.
func (r *Region) handleMessage(from string, payload []byte) {
	msg, err := decodeMsg(payload)
	if err != nil {
		return
	}
	switch msg.Kind {
	case kindRun:
		go func() {
			r.bump(func(s *Stats) { s.RoutedIn++ })
			out, err := r.runLocal(context.Background(), msg.Program, msg.Input)
			resp := wireMsg{Kind: kindResp, Req: msg.Req, Output: out}
			if err != nil {
				resp.Error = err.Error()
			}
			r.reply(from, resp)
		}()
	case kindQuery:
		go func() {
			r.bump(func(s *Stats) { s.SubQueries++ })
			count, sum, err := r.runSubQuery(context.Background(), msg.Table, msg.Lo, msg.Hi, msg.Op, msg.Prefix)
			resp := wireMsg{Kind: kindQResp, Req: msg.Req, Count: count, Sum: sum}
			if err != nil {
				resp.Error = err.Error()
			}
			r.reply(from, resp)
		}()
	case kindResp, kindQResp:
		r.mu.Lock()
		ch := r.pending[msg.Req]
		r.mu.Unlock()
		if ch != nil {
			ch <- wireResp{output: msg.Output, err: msg.Error, count: msg.Count, sum: msg.Sum}
		}
	}
}

func (r *Region) reply(to string, msg wireMsg) {
	r.sys.Send(to, service, msg.encode())
}

// --- decision support: parallel sub-queries (§2.3) ---

// QueryResult aggregates a parallel query.
type QueryResult struct {
	Count int64
	Sum   int64
	Parts int
}

// runSubQuery executes one page-range fragment locally.
func (r *Region) runSubQuery(ctx context.Context, table string, lo, hi int, op, prefix string) (int64, int64, error) {
	owner := fmt.Sprintf("Q.%s.%d.%d", r.System(), lo, hi)
	var count, sum int64
	err := r.engine.ScanPages(ctx, owner, table, lo, hi, func(key string, value []byte) bool {
		if prefix != "" && (len(key) < len(prefix) || key[:len(prefix)] != prefix) {
			return true
		}
		count++
		if op == "sum" {
			var n int64
			fmt.Sscanf(string(value), "%d", &n)
			sum += n
		}
		return true
	})
	return count, sum, err
}

// ParallelQuery splits a table scan into page-range sub-queries
// distributed across the given systems (this one included), runs them
// in parallel, and aggregates. op is "count" or "sum"; prefix filters
// keys. The caller sees one answer, as if the query ran serially.
func (r *Region) ParallelQuery(ctx context.Context, systems []string, table, op, prefix string) (QueryResult, error) {
	pages, err := r.engine.TablePages(table)
	if err != nil {
		return QueryResult{}, err
	}
	if len(systems) == 0 {
		systems = []string{r.System()}
	}
	parts := len(systems)
	if parts > pages {
		parts = pages
		systems = systems[:parts]
	}
	per := (pages + parts - 1) / parts
	type partial struct {
		count, sum int64
		err        error
	}
	results := make(chan partial, parts)
	launched := 0
	for i, sysName := range systems {
		lo := i * per
		hi := lo + per
		if hi > pages {
			hi = pages
		}
		if lo >= hi {
			continue
		}
		launched++
		go func(sysName string, lo, hi int) {
			if sysName == r.System() {
				c, s, err := r.runSubQuery(ctx, table, lo, hi, op, prefix)
				r.bump(func(st *Stats) { st.SubQueries++ })
				results <- partial{c, s, err}
				return
			}
			resp, err := r.call(ctx, sysName, wireMsg{Kind: kindQuery, Table: table, Lo: lo, Hi: hi, Op: op, Prefix: prefix})
			if err != nil {
				results <- partial{err: err}
				return
			}
			if resp.err != "" {
				results <- partial{err: errors.New(resp.err)}
				return
			}
			results <- partial{resp.count, resp.sum, nil}
		}(sysName, lo, hi)
	}
	out := QueryResult{Parts: launched}
	for i := 0; i < launched; i++ {
		p := <-results
		if p.err != nil && err == nil {
			err = p.err
		}
		out.Count += p.count
		out.Sum += p.sum
	}
	return out, err
}
