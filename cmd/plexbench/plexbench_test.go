package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   *bool            `json:"correct"`
	Attempted *int             `json:"attempted"`
	Failed    *int             `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLines returns the result line of every workload in a report.
func resultLines(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			continue
		}
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
			t.Fatalf("result line %q lacks a key", sc.Text())
		}
		lines = append(lines, r)
	}
	return lines
}

// checkMetrics: every declared name once, with its unit, and no other.
func checkMetrics(t *testing.T, what string, got map[string]value, want []metricDef) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.name)
			continue
		}
		if v.Unit != m.unit || m.unit == "" {
			t.Errorf("%s: metric %s has unit %q, declared %q", what, m.name, v.Unit, m.unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			known := false
			for _, m := range want {
				known = known || m.name == name
			}
			if !known {
				t.Errorf("%s: unknown metric %s", what, name)
			}
		}
	}
}

// TestEveryWorkloadTraced runs all five workloads at 1/100 of their
// count with the traced round, so tier-1 keeps the benchmark from
// rotting: zero failures, the correctness gate passes, and exactly the
// declared metrics come out. Workloads run side by side (the times mean
// nothing at this size): set-up on the link and disk workloads is most
// of the test.
func TestEveryWorkloadTraced(t *testing.T) {
	type run struct {
		out  bytes.Buffer
		tmp  string
		sets [][]result
		err  error
	}
	runs := make([]*run, len(workloads))
	var wg sync.WaitGroup
	start := func(i int) {
		r := &run{tmp: t.TempDir()}
		runs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := options{workloads: workloads[i : i+1], seed: 7, trace: true, repeat: 1, tmp: r.tmp, scale: 0.01, out: &r.out}
			r.sets, r.err = runSets(context.Background(), o)
		}()
	}
	// hot-mem first and alone: its lock waits have a 50 ms limit, which
	// four other complexes on the same cores could stretch.
	for i, w := range workloads {
		if w.hot {
			start(i)
			wg.Wait()
		}
	}
	for i, w := range workloads {
		if !w.hot {
			start(i)
		}
	}
	wg.Wait()
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, tmp, sets, err := &runs[i].out, runs[i].tmp, runs[i].sets, runs[i].err
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			lines := resultLines(t, out.String())
			if len(sets) != 1 || len(sets[0]) != 1 || len(lines) != 1 {
				t.Fatalf("%d sets, %d result lines, want 1 and 1", len(sets), len(lines))
			}
			r, line := sets[0][0], lines[0]
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("attempted=%d failed=%d", r.attempted, r.failed)
			}
			e2e := map[string]value{}
			for _, m := range endToEnd {
				if v, ok := r.e2e[m.name]; ok {
					e2e[m.name] = value{v, m.unit}
				}
				if r.e2e[m.name] <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", m.name, r.e2e[m.name])
				}
			}
			checkMetrics(t, "end-to-end", e2e, endToEnd)
			checkMetrics(t, "-trace 1 line", line.Metrics, perLayer)
			if *line.Failed != 0 || !*line.Correct || *line.Attempted != r.attempted {
				t.Errorf("result line says correct=%v attempted=%d failed=%d", *line.Correct, *line.Attempted, *line.Failed)
			}
			l := r.layers
			if w.name == "inquiry-mem" && l["logr.writes_per_tx"] != 0 {
				t.Errorf("inquiry-mem wrote %v log records per transaction, want 0", l["logr.writes_per_tx"])
			}
			if (l["cflink.cmds_per_tx"] > 0) != w.link {
				t.Errorf("cflink.cmds_per_tx = %v", l["cflink.cmds_per_tx"])
			}
			if (l["dasd.fsyncs_per_tx"] > 0) != w.disk {
				t.Errorf("dasd.fsyncs_per_tx = %v", l["dasd.fsyncs_per_tx"])
			}
			trace, err := os.ReadFile(filepath.Join(tmp, "plexbench-trace-"+w.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, trace)
			// Only the trace file is left: the scratch directory is gone.
			if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) != 1 {
				t.Errorf("scratch not removed: %v", left)
			}
		})
	}
}

// checkTrace: every traced transaction has a root span, and every other
// span a parent within the same transaction.
func checkTrace(t *testing.T, raw []byte) {
	t.Helper()
	type rec struct {
		Tx, ID, Parent uint64
		Name           string
		Start          int64 `json:"start_ns"`
		End            int64 `json:"end_ns"`
	}
	ids := map[[2]uint64]bool{}
	var spans []rec
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var s rec
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("trace: %q: %v", line, err)
		}
		ids[[2]uint64{s.Tx, s.ID}] = true
		spans = append(spans, s)
	}
	roots := 0
	for _, s := range spans {
		switch {
		case s.End < s.Start:
			t.Fatalf("trace: span %+v ends before it starts", s)
		case s.Parent == 0 && s.Name == "client.tx":
			roots++
		case !ids[[2]uint64{s.Tx, s.Parent}]:
			t.Fatalf("trace: span %+v has no parent", s)
		}
	}
	if roots == 0 || len(spans) < 5*roots {
		t.Errorf("trace: %d spans for %d transactions", len(spans), roots)
	}
}

// TestWatchdog: a phase that hangs is abandoned with errWatchdog, and
// the transactions it never attempted count as failed.
func TestWatchdog(t *testing.T) {
	defer func(d time.Duration) { roundLimit = d }(roundLimit)
	roundLimit = 50 * time.Millisecond
	var stop atomic.Bool
	e := &env{stop: &stop}
	hang := make(chan struct{})
	defer close(hang)
	clients := newClients(2)
	ops := [][]op{make([]op, 10), make([]op, 10)}
	for _, o := range ops {
		for i := range o {
			o[i] = op{prog: progBalance}
		}
	}
	_, err := e.drive(clients, ops, time.Time{}, func(c *client, _ string, _ []byte) ([]byte, error) {
		if c.attempted == 3 {
			<-hang
		}
		return []byte("1000"), nil
	})
	if !errors.Is(err, errWatchdog) || !stop.Load() || !strings.Contains(err.Error(), "14 of 20 transactions unfinished") {
		t.Fatalf("drive returned %v, stop=%v", err, stop.Load())
	}
}

// TestSlices: a window is cut into whole slices, a stall is charged to
// the slice that ends it, and the reported value is the one a twentieth
// of the slices beat.
func TestSlices(t *testing.T) {
	ms := int64(time.Millisecond)
	// Replies every 10 ms with latency 1 ms over 1 s, but none between
	// 300 and 500 ms, and 2 ms latencies from 500 ms on.
	rr := roundResult{window: 1050 * time.Millisecond}
	for at := 10 * ms; at <= 1040*ms; at += 10 * ms {
		if at > 300*ms && at < 500*ms {
			continue
		}
		lat := ms
		if at >= 500*ms {
			lat = 2 * ms
		}
		rr.endAt, rr.lat = append(rr.endAt, at), append(rr.lat, lat)
	}
	sl := cutSlices(rr, 100*time.Millisecond)
	if len(sl) != 10 {
		t.Fatalf("%d slices, want 10 (the unfinished one dropped)", len(sl))
	}
	if sl[0].p50 != float64(ms) || sl[9].p50 != float64(2*ms) || sl[4] != (slice{}) {
		t.Errorf("slices 0, 4, 9: %+v %+v %+v", sl[0], sl[4], sl[9])
	}
	// Slice 5 holds 500..590 ms, ten replies; the last reply before it was
	// at 300 ms, so the 200 ms stall is its own.
	if got, want := sl[5].txPerS, 10/0.290; math.Abs(got-want) > 1e-6 {
		t.Errorf("slice after the stall: %v tx/s, want %v", got, want)
	}
	if one := cutSlices(rr, time.Second); len(one) != 1 || one[0].p50 == 0 {
		t.Errorf("a window shorter than two slices: %+v", one)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	vals[0] = 0 // a slice without a reply
	if lo, hi := quiet(vals, "lower"), quiet(vals, "higher"); lo != 6 || hi != 95 {
		t.Errorf("quiet: lower %v, higher %v, want 6 and 95", lo, hi)
	}
}

// TestResultLineUntraced: with -trace 0 the result line carries exactly
// the end-to-end metrics.
func TestResultLineUntraced(t *testing.T) {
	t.Parallel()
	w, err := findWorkload("inquiry-mem")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := options{workloads: []workload{w}, seed: 7, repeat: 2, tmp: t.TempDir(), scale: 0.01, out: &out}
	// Two sets at this size can differ by more than the bounds; only
	// the shape of the output is under test.
	if _, err := runSets(context.Background(), o); err != nil && !strings.Contains(err.Error(), "sets disagree") {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := resultLines(t, out.String())
	if len(lines) != 2 {
		t.Fatalf("%d result lines, want 2", len(lines))
	}
	checkMetrics(t, "inquiry-mem -trace 0 line", lines[0].Metrics, endToEnd)
	if !strings.Contains(out.String(), "== repeat: sets 2..2 against set 1") {
		t.Errorf("no repeat comparison in:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, %d gated in the code", len(b.Workloads), len(gated))
	}
	for i, w := range gated {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.bound || m.bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, m.name, m.bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
