package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"sysplex"
)

// Sizing common to every workload (ISSUE 13): stated, not varied.
const (
	table      = "ACCT"
	tablePages = 64
	accounts   = 512 // fits every system's 256-frame local pool
	preloadBal = 1000
	hotKeys    = 4
	warmupTx   = 2000
	// rounds of a run at the fixed counts. A time-boxed run (-seconds)
	// makes as many as give each window windowMax at most, because the
	// counts end a window after five to seven seconds anyway.
	rounds    = 3
	windowMax = 5.0 // seconds
	// volumeBlocks: log offload datasets are never trimmed, and the
	// default 131072-block volume is exhausted after ~45k update
	// transactions.
	volumeBlocks = 524288
	// castoutEvery: with Background=false the harness stands in for
	// the castout timer, inside the throughput window and outside
	// transaction latency.
	castoutEvery = 500
	castoutMax   = 64
	// hotLockTimeout is hot-mem's Config.LockTimeout (see buildEnv).
	hotLockTimeout = 50 * time.Millisecond
)

// Transaction programs. The first input byte is the submitting client,
// so the traced wrappers can find that client's open span.
const (
	progDeposit = iota // Get + Put, S→X on the key
	progBalance        // Get
	progSetBal         // blind Put, X on the key
)

var progNames = [...]string{progDeposit: "DEPOSIT", progBalance: "BALANCE", progSetBal: "SETBAL"}

// workload is one traffic mix and the complex it runs on.
type workload struct {
	name  string
	why   string // one line, copied into BENCHMARK.json
	count int    // transactions per round at full scale
	// slice is the stretch of a window that is measured on its own (see
	// cutSlices): long enough to hold a thousand transactions or so and
	// two of every client's castouts.
	slice time.Duration
	// pick draws a client's next transaction over the keys it may use.
	pick func(rng *rand.Rand, keys []uint16) op
	hot  bool // hotKeys shared keys, every client on all of them
	link bool // CF fleet behind unix-socket cflink servers
	disk bool // file-backed DASD farm
	// ungated: run, checked and reported like the others but absent from
	// BENCHMARK.json. oltp-disk is bound to the fsync of a shared virtual
	// disk and oltp-link to socket wake-ups on two shared cores; their
	// run-to-run spread comes near or passes the largest bound that file
	// may carry, and the driver's time pays for three workloads at 35 s
	// or four at 25 s (README, "Measured spread").
	ungated bool
}

// op is one generated transaction.
type op struct {
	prog uint8
	key  uint16
}

func pickOLTP(rng *rand.Rand, keys []uint16) op {
	if rng.Intn(100) < 80 {
		return op{progDeposit, keys[rng.Intn(len(keys))]}
	}
	return op{progBalance, keys[rng.Intn(len(keys))]}
}

func pickInquiry(rng *rand.Rand, keys []uint16) op {
	return op{progBalance, keys[rng.Intn(len(keys))]}
}

func pickHot(rng *rand.Rand, keys []uint16) op {
	key := keys[rng.Intn(len(keys))]
	if rng.Intn(2) == 0 {
		return op{progSetBal, key}
	}
	return op{progBalance, key}
}

// workloads: names are final, later issues cite them.
var workloads = []workload{
	{name: "oltp-mem", count: 40000, slice: 250 * time.Millisecond, pick: pickOLTP,
		why: "80% DEPOSIT / 20% BALANCE on own keys, in-process duplexed CF, memory DASD: logr, db commit and CF commands do the work, cflink and fsync none"},
	{name: "inquiry-mem", count: 300000, slice: 250 * time.Millisecond, pick: pickInquiry,
		why: "100% BALANCE: read-only commit writes no log and no page, so vtam, txmgr, lock fast path and local buffer hits are the whole cost; control for write-path changes"},
	{name: "hot-mem", count: 40000, slice: 250 * time.Millisecond, pick: pickHot, hot: true,
		why: "50% blind SETBAL / 50% BALANCE on 4 keys shared by all clients: the only real cross-system lock contention, XCF negotiation, wake-up and cross-invalidation"},
	{name: "oltp-link", count: 6000, slice: time.Second, pick: pickOLTP, link: true, ungated: true,
		why: "oltp-mem mix with both CFs behind unix-socket cflink servers: every CF command pays codec, two syscalls and a wake-up, mutations twice"},
	{name: "oltp-disk", count: 6000, slice: time.Second, pick: pickOLTP, disk: true, ungated: true,
		why: "oltp-mem mix on a file-backed DASD farm: bound by group-commit fsync; ends with Stop, sysplex.Open and a re-read of every balance"},
}

// roundsFor is the number of untraced rounds of a run that measures for
// the given time (0: the fixed counts).
func roundsFor(seconds float64) int {
	return max(rounds, int(math.Ceil(seconds/windowMax)))
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genOps makes client c's n transactions for one pass over the keys it
// may use: the same (seed, workload, round, client) always gives the
// same inputs.
func genOps(w workload, seed int64, round, c, n int, keys []uint16) []op {
	var widx int64
	for i := range workloads {
		if workloads[i].name == w.name {
			widx = int64(i)
		}
	}
	rng := rand.New(rand.NewSource(seed*1000003 + widx*10007 + int64(round)*101 + int64(c)))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.pick(rng, keys)
	}
	return ops
}

func keyName(k uint16) string { return fmt.Sprintf("acct%04d", k) }

// registerPrograms installs the benchmark-owned transaction programs.
// tr, when non-nil, records a span around each program and each of its
// database calls during the traced round.
func registerPrograms(p *sysplex.Sysplex, tr *tracer) {
	get := func(tx *sysplex.Tx, client byte, key string) ([]byte, bool, error) {
		defer tr.end(client, tr.begin(client, "db.get"))
		return tx.Get(table, key)
	}
	put := func(tx *sysplex.Tx, client byte, key string, v []byte) error {
		defer tr.end(client, tr.begin(client, "db.put"))
		return tx.Put(table, key, v)
	}
	program := func(fn sysplex.Program) sysplex.Program {
		return func(tx *sysplex.Tx, in []byte) ([]byte, error) {
			defer tr.end(in[0], tr.begin(in[0], "program"))
			return fn(tx, in)
		}
	}
	p.RegisterProgram(progNames[progDeposit], 1, program(func(tx *sysplex.Tx, in []byte) ([]byte, error) {
		return deposit(in, func(key string) ([]byte, bool, error) { return get(tx, in[0], key) },
			func(key string, v []byte) error { return put(tx, in[0], key, v) })
	}))
	p.RegisterProgram(progNames[progBalance], 1, program(func(tx *sysplex.Tx, in []byte) ([]byte, error) {
		return balance(in, func(key string) ([]byte, bool, error) { return get(tx, in[0], key) })
	}))
	p.RegisterProgram(progNames[progSetBal], 1, program(func(tx *sysplex.Tx, in []byte) ([]byte, error) {
		return setBal(in, func(key string, v []byte) error { return put(tx, in[0], key, v) })
	}))
}

// The program bodies, over the two database calls they make, so the
// direct engine pass runs the same logic with its own timing around
// each call.
type (
	getFn func(key string) ([]byte, bool, error)
	putFn func(key string, v []byte) error
)

func deposit(in []byte, get getFn, put putFn) ([]byte, error) {
	key := string(in[1:])
	v, _, err := get(key)
	if err != nil {
		return nil, err
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("DEPOSIT %s: balance %q: %w", key, v, err)
	}
	out := strconv.AppendInt(nil, n+1, 10)
	if err := put(key, out); err != nil {
		return nil, err
	}
	return out, nil
}

func balance(in []byte, get getFn) ([]byte, error) {
	v, ok, err := get(string(in[1:]))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("BALANCE %s: no such account", in[1:])
	}
	return v, nil
}

// setBal input: client byte, 8-byte key, value.
func setBal(in []byte, put putFn) ([]byte, error) {
	if err := put(string(in[1:9]), in[9:]); err != nil {
		return nil, err
	}
	return append([]byte(nil), in[9:]...), nil
}
