package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"time"

	"sysplex"
)

// span is one timed interval at a layer boundary. Spans of one
// transaction share Tx; Parent is the ID of the span that caused it (0
// for the root).
type span struct {
	Tx     uint64
	ID     uint32
	Parent uint32
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	up     int32 // index of the parent in the client's slice, -1: root
}

// clientTrace is one client's spans. A closed-loop client has one
// transaction in flight, so its spans nest on a stack and need no lock:
// a program that runs on another goroutine (function shipping) is still
// ordered before the reply its client waits for.
type clientTrace struct {
	spans []span
	tx    uint64
	next  uint32
	top   int32 // innermost open span, -1: none
	open  bool  // inside a traced transaction
}

// tracer holds the spans of the traced round in memory; they are
// written out when the run ends.
type tracer struct {
	epoch time.Time
	per   []clientTrace
}

func (t *tracer) reset(clients, txPerClient int) {
	t.epoch = time.Now()
	t.per = make([]clientTrace, clients)
	for c := range t.per {
		t.per[c] = clientTrace{spans: make([]span, 0, 8*txPerClient), tx: uint64(c) << 32, top: -1}
	}
}

// begin opens a span under the client's innermost open span and returns
// its handle for end; outside a traced transaction it does nothing.
func (t *tracer) begin(client byte, name string) int32 {
	if t == nil || int(client) >= len(t.per) {
		return -1
	}
	ct := &t.per[client]
	if !ct.open {
		return -1
	}
	ct.next++
	s := span{Tx: ct.tx, ID: ct.next, Name: name, up: ct.top, Start: int64(time.Since(t.epoch))}
	if ct.top >= 0 {
		s.Parent = ct.spans[ct.top].ID
	}
	ct.spans = append(ct.spans, s)
	ct.top = int32(len(ct.spans) - 1)
	return ct.top
}

func (t *tracer) end(client byte, h int32) {
	if h < 0 {
		return
	}
	ct := &t.per[client]
	ct.spans[h].End = int64(time.Since(t.epoch))
	ct.top = ct.spans[h].up
}

// openTx starts client's next traced transaction and returns its root
// span; closeTx ends it.
func (t *tracer) openTx(client byte) int32 {
	if t == nil {
		return -1
	}
	ct := &t.per[client]
	ct.tx++
	ct.next, ct.open = 0, true
	return t.begin(client, "client.tx")
}

func (t *tracer) closeTx(client byte, root int32) {
	if t == nil {
		return
	}
	t.end(client, root)
	t.per[client].open = false
}

// submitSteps performs SubmitViaLogon's own public steps — logon,
// submit, logoff — with a span around each when t is set. It does not
// re-drive a stale bind: no system leaves during a benchmark. pinned
// sends client c's transactions to system c whatever the logon picked.
func (e *env) submitSteps(t *tracer, pinned bool) submitFn {
	ctx := context.Background()
	net := e.plex.Network()
	return func(c *client, program string, in []byte) ([]byte, error) {
		id := byte(c.id)
		defer t.closeTx(id, t.openTx(id))
		h := t.begin(id, "vtam.logon")
		sess, err := net.Logon(ctx, sysplex.GenericCICS)
		t.end(id, h)
		if err != nil {
			return nil, err
		}
		system := sess.System
		if pinned {
			system = e.systems[c.id%len(e.systems)].Name()
		}
		h = t.begin(id, "txmgr.submit")
		out, err := e.plex.Submit(ctx, system, program, in)
		t.end(id, h)
		h = t.begin(id, "vtam.logoff")
		net.Logoff(ctx, sess.ID)
		t.end(id, h)
		return out, err
	}
}

// spanStats is the total and self time of every span name.
type spanStats struct {
	n     map[string]int
	total map[string]int64 // ns
	self  map[string]int64 // total minus the part the children cover
	txs   int
}

func (t *tracer) stats() spanStats {
	st := spanStats{n: map[string]int{}, total: map[string]int64{}, self: map[string]int64{}}
	for c := range t.per {
		spans := t.per[c].spans
		for _, s := range spans {
			d := s.End - s.Start
			st.n[s.Name]++
			st.total[s.Name] += d
			st.self[s.Name] += d
			if s.up >= 0 {
				st.self[spans[s.up].Name] -= d
			} else {
				st.txs++
			}
		}
	}
	return st
}

// meanUS is the mean duration of the spans called name.
func (st spanStats) meanUS(name string) float64 {
	if st.n[name] == 0 {
		return 0
	}
	return float64(st.total[name]) / float64(st.n[name]) / 1e3
}

// perTxUS is the time under name per traced transaction.
func (st spanStats) perTxUS(name string) float64 {
	if st.txs == 0 {
		return 0
	}
	return float64(st.total[name]) / float64(st.txs) / 1e3
}

func (st spanStats) selfPerTxUS(name string) float64 {
	if st.txs == 0 {
		return 0
	}
	return float64(st.self[name]) / float64(st.txs) / 1e3
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for c := range t.per {
		for _, s := range t.per[c].spans {
			fmt.Fprintf(w, `{"tx":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.Tx, s.ID, s.Parent, s.Name, s.Start, s.End)
		}
	}
	return w.Flush()
}
