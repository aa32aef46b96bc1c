package cflink

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"sysplex/internal/cf"
)

// The conformance suite iterates the cf command table, so a new row is
// covered by every check below with no new test code: descriptors and
// replies are filled from the row's field sets, and outcomes are
// compared across the three ways a command reaches a structure — an
// in-process replica, a duplexed pair, and a cflink client.

// allKinds lists every kind the command table knows.
func allKinds() []cf.Kind {
	var ks []cf.Kind
	for k := cf.Kind(1); ; k++ {
		if _, _, ok := k.Fields(); !ok {
			return ks
		}
		ks = append(ks, k)
	}
}

// fillCmd builds a descriptor of kind k with every field the table says
// k reads set to a fixed non-zero value, issued by conn. The values
// line up with prepare: conn "SYS1" is connected, entry/list/lock
// index 1 exists, and "N1" names a lock record, a changed cache block,
// and a list entry.
func fillCmd(k cf.Kind, conn string) cf.Cmd {
	c := cf.Cmd{Kind: k}
	in, _, _ := k.Fields()
	set := func(f cf.Fields, fn func()) {
		if in&f != 0 {
			fn()
		}
	}
	set(cf.FConn, func() { c.Conn = conn })
	set(cf.FName, func() { c.Name = "N1" })
	set(cf.FKey, func() { c.Key = "K1" })
	set(cf.FIdx, func() { c.Idx = 1 })
	set(cf.FVecIdx, func() { c.VecIdx = 2 })
	set(cf.FMode, func() { c.Mode = cf.Exclusive })
	set(cf.FOrder, func() { c.Order = cf.LIFO })
	set(cf.FVersion, func() { c.Version = 1 })
	set(cf.FCond, func() { c.Cond = cf.Cond{Use: true, LockIndex: 1} })
	set(cf.FFlags, func() { c.Cache, c.Changed = true, true })
	set(cf.FData, func() { c.Data = []byte("payload") })
	set(cf.FVector, func() { c.Vector = cf.NewBitVector(8) })
	set(cf.FSub, func() {
		c.Sub = []cf.Cmd{fillCmd(cf.CmdListWrite, conn), fillCmd(cf.CmdListRead, conn), fillCmd(cf.CmdListDelete, conn)}
	})
	return c
}

// fillReply builds a reply with every field the table says k fills set.
func fillReply(k cf.Kind) cf.Reply {
	var r cf.Reply
	_, out, _ := k.Fields()
	set := func(f cf.Fields, fn func()) {
		if out&f != 0 {
			fn()
		}
	}
	entry := cf.ListEntry{ID: "N1", Key: "K1", Data: []byte("payload"), Adjunct: "adj", List: 1}
	set(cf.RFlag, func() { r.Flag = true })
	set(cf.RCounts, func() { r.N, r.M = 3, -4 })
	set(cf.RVersion, func() { r.Version = 7 })
	set(cf.RText, func() { r.Text = "SYS1" })
	set(cf.RData, func() { r.Data = []byte("block") })
	set(cf.RNames, func() { r.Names = []string{"SYS1", "SYS2"} })
	set(cf.RRecords, func() { r.Records = []cf.LockRecord{{Connector: "SYS1", Resource: "R9", Mode: cf.Share}} })
	set(cf.REntry, func() { r.Entry = entry })
	set(cf.REntries, func() { r.Entries = []cf.ListEntry{entry, entry} })
	set(cf.RSub, func() {
		r.Errs = []error{nil, nil, cf.ErrEntryNotFound}
		r.Sub = []cf.Reply{fillReply(cf.CmdListWrite), fillReply(cf.CmdListRead), {}}
	})
	return r
}

// vecMap stands in for both ends' vector tables in codec tests: real
// vectors get wire IDs, and an ID resolves back to the same vector.
type vecMap struct {
	ids  map[*cf.BitVector]uint64
	vecs map[uint64]*cf.BitVector
}

func newVecMap() *vecMap {
	return &vecMap{ids: map[*cf.BitVector]uint64{}, vecs: map[uint64]*cf.BitVector{}}
}

func (m *vecMap) id(v *cf.BitVector) uint64 {
	if v == nil {
		return 0
	}
	if id, ok := m.ids[v]; ok {
		return id
	}
	id := uint64(len(m.ids) + 1)
	m.ids[v], m.vecs[id] = id, v
	return id
}

func (m *vecMap) vec(id uint64, _ int) *cf.BitVector { return m.vecs[id] }

// TestCodecEveryKind is check (a): descriptor and reply round-trip for
// every kind, every truncation rejected without panic, and unknown,
// nested and oversized frames rejected.
func TestCodecEveryKind(t *testing.T) {
	vecs := newVecMap()
	for _, k := range allKinds() {
		c, r := fillCmd(k, "SYS1"), fillReply(k)
		var ce, re encoder
		ce.cmd(&c, vecs.id)
		re.reply(&c, &r)

		d := &decoder{b: ce.b}
		if got := d.cmd(vecs.vec, false); d.finish() != nil || !reflect.DeepEqual(got, c) {
			t.Errorf("%v: descriptor round trip: %+v (err %v), want %+v", k, got, d.err, c)
		}
		d = &decoder{b: re.b}
		got := d.reply(&c)
		if err := d.finish(); err != nil || !sameReply(got, r) {
			t.Errorf("%v: reply round trip: %+v (err %v), want %+v", k, got, err, r)
		}
		for n := 0; n < len(ce.b); n++ {
			d := &decoder{b: ce.b[:n]}
			d.cmd(vecs.vec, false)
			if d.finish() == nil {
				t.Errorf("%v: descriptor truncated to %d of %d bytes decoded cleanly", k, n, len(ce.b))
			}
		}
		for n := 0; n < len(re.b); n++ {
			d := &decoder{b: re.b[:n]}
			d.reply(&c)
			if d.finish() == nil {
				t.Errorf("%v: reply truncated to %d of %d bytes decoded cleanly", k, n, len(re.b))
			}
		}
		// A trailing byte is as malformed as a missing one.
		d = &decoder{b: append(append([]byte(nil), ce.b...), 0)}
		d.cmd(vecs.vec, false)
		if d.finish() == nil {
			t.Errorf("%v: descriptor with a trailing byte decoded cleanly", k)
		}
	}

	last := allKinds()[len(allKinds())-1]
	for _, b := range []byte{0, byte(last) + 1, 255} {
		d := &decoder{b: []byte{b}}
		if d.cmd(vecs.vec, false); d.finish() == nil {
			t.Errorf("unknown kind byte %d decoded cleanly", b)
		}
	}
	nested := cf.Cmd{Kind: cf.CmdBatch, Sub: []cf.Cmd{{Kind: cf.CmdBatch, Sub: []cf.Cmd{fillCmd(cf.CmdListPop, "SYS1")}}}}
	var ne encoder
	ne.cmd(&nested, vecs.id)
	d := &decoder{b: ne.b}
	if d.cmd(vecs.vec, false); d.finish() == nil {
		t.Error("an envelope inside an envelope decoded cleanly")
	}
	over := cf.Cmd{Kind: cf.CmdBatch, Sub: make([]cf.Cmd, cf.MaxBatchOps+1)}
	for i := range over.Sub {
		over.Sub[i] = cf.Cmd{Kind: cf.CmdListTotalEntries}
	}
	var oe encoder
	oe.cmd(&over, vecs.id)
	d = &decoder{b: oe.b}
	if c := d.cmd(vecs.vec, false); d.finish() == nil || len(c.Sub) != 0 {
		t.Errorf("an envelope of %d subcommands decoded (%d kept)", len(over.Sub), len(c.Sub))
	}
}

// target is one way of reaching structures: the front commands and
// envelopes go through, plus the replica handles behind it.
type target struct {
	name  string
	front *cf.Duplexed
	nodes []cf.Node // primary first
}

// newTarget builds a fresh CF complex of the given kind.
func newTarget(t *testing.T, kind string) *target {
	t.Helper()
	remote := func(name string) cf.Node {
		srv := NewServer(cf.New(name, nil))
		l, err := net.Listen("unix", filepath.Join(t.TempDir(), "cf.sock"))
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(srv.Close)
		c, err := Dial("unix", l.Addr().String(), WithSystem("SYS1"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	tg := &target{name: kind}
	switch kind {
	case "in-process":
		tg.nodes = []cf.Node{cf.New("CF01", nil)}
		tg.front = cf.NewDuplexed(nil, nil, tg.nodes[0], nil)
	case "duplexed":
		tg.nodes = []cf.Node{cf.New("CF01", nil), cf.New("CF02", nil)}
		tg.front = cf.NewDuplexed(nil, nil, tg.nodes[0], tg.nodes[1])
	case "wire":
		tg.nodes = []cf.Node{remote("CF01"), remote("CF02")}
		tg.front = cf.NewDuplexed(nil, nil, tg.nodes[0], tg.nodes[1])
	}
	return tg
}

var targetKinds = []string{"in-process", "duplexed", "wire"}

const confStructure = "S"

// prepare allocates the one structure of the model on the target and
// brings it to the state fillCmd's values refer to.
func (tg *target) prepare(t *testing.T, model cf.Model) {
	t.Helper()
	ctx := context.Background()
	var err error
	switch model {
	case cf.LockModel:
		var ls cf.Lock
		if ls, err = tg.front.AllocateLockStructure(confStructure, 16); err == nil {
			err = errors.Join(
				ls.Connect(ctx, "SYS1"),
				ls.Connect(ctx, "SYS2"),
				second(ls.Obtain(ctx, 1, "SYS1", cf.Exclusive)),
				ls.SetRecord(ctx, "SYS1", "N1", cf.Exclusive))
		}
	case cf.CacheModel:
		var cs cf.Cache
		if cs, err = tg.front.AllocateCacheStructure(confStructure, 64); err == nil {
			err = errors.Join(
				cs.Connect(ctx, "SYS1", cf.NewBitVector(8)),
				cs.Connect(ctx, "SYS2", cf.NewBitVector(8)),
				cs.WriteAndInvalidate(ctx, "SYS1", "N1", []byte("v1"), true, true, 0))
		}
	case cf.ListModel:
		var lst cf.List
		if lst, err = tg.front.AllocateListStructure(confStructure, 4, 2, 64); err == nil {
			err = errors.Join(
				lst.Connect(ctx, "SYS1", cf.NewBitVector(8)),
				lst.Connect(ctx, "SYS2", cf.NewBitVector(8)),
				lst.Write(ctx, "SYS1", 1, "N1", "K0", []byte("v1"), cf.FIFO, cf.Cond{}),
				lst.Write(ctx, "SYS1", 1, "N2", "K2", []byte("v2"), cf.FIFO, cf.Cond{}))
		}
	}
	if err != nil {
		t.Fatalf("%s: prepare %s structure: %v", tg.name, model, err)
	}
}

func second[T any](_ T, err error) error { return err }

// state is the structure's observable state: the outcome of every
// read-class command of its model (the reads and the diagnostics),
// issued through the front.
func (tg *target) state(model cf.Model) map[string]outcome {
	out := map[string]outcome{}
	for _, k := range allKinds() {
		if k.Model() == model && k.Order() == cf.OpRead {
			out[k.String()] = outcomeOf(tg.front.Exec(context.Background(), confStructure, fillCmd(k, "SYS1")))
		}
	}
	return out
}

// outcome is a command's result in comparable form.
type outcome struct {
	Reply cf.Reply
	Err   string // message, prefixed by the cf sentinel it matches
}

var sentinels = []error{cf.ErrCFDown, cf.ErrNoStructure, cf.ErrWrongModel, cf.ErrExists, cf.ErrStorage,
	cf.ErrNotConnected, cf.ErrLockHeld, cf.ErrEntryNotFound, cf.ErrListFull, cf.ErrCacheFull,
	cf.ErrBadArgument, context.Canceled, context.DeadlineExceeded}

func outcomeOf(r cf.Reply, err error) outcome {
	return outcome{Reply: normReply(r), Err: errText(err)}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return fmt.Sprintf("[%v] %v", s, err)
		}
	}
	return "(no sentinel) " + err.Error()
}

// normReply puts a reply in comparable form: empty slices become nil
// (an absent list and an empty one are the same answer; the link
// decodes either as empty) and an envelope's errors become their
// sentinel-tagged text, carried in the sub-reply's Text.
func normReply(r cf.Reply) cf.Reply {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Names) == 0 {
		r.Names = nil
	}
	if len(r.Records) == 0 {
		r.Records = nil
	}
	if len(r.Entry.Data) == 0 {
		r.Entry.Data = nil
	}
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Data) == 0 {
			r.Entries[i].Data = nil
		}
	}
	var sub []cf.Reply
	for i, err := range r.Errs {
		var s cf.Reply
		if r.Sub != nil {
			s = normReply(r.Sub[i])
		}
		if err != nil {
			s.Text = errText(err)
		}
		sub = append(sub, s)
	}
	r.Errs, r.Sub = nil, sub
	return r
}

func sameReply(a, b cf.Reply) bool { return reflect.DeepEqual(normReply(a), normReply(b)) }

// confScripts is check (b)'s input: per model, a command sequence
// mixing successes with every kind of logical failure, run after
// prepare.
var confScripts = map[cf.Model][]cf.Cmd{
	cf.LockModel: {
		{Kind: cf.CmdLockObtain, Idx: 2, Conn: "SYS1", Mode: cf.Share},
		{Kind: cf.CmdLockObtain, Idx: 2, Conn: "SYS2", Mode: cf.Exclusive}, // refused: holders
		{Kind: cf.CmdLockForce, Idx: 2, Conn: "SYS2", Mode: cf.Exclusive},
		{Kind: cf.CmdLockObtain, Idx: 99, Conn: "SYS1", Mode: cf.Share}, // bad argument
		{Kind: cf.CmdLockObtain, Idx: 3, Conn: "NOBODY", Mode: cf.Share},
		{Kind: cf.CmdLockRelease, Idx: 2, Conn: "SYS1", Mode: cf.LockMode(9)},
		{Kind: cf.CmdLockRelease, Idx: 1, Conn: "SYS1", Mode: cf.Exclusive},
		{Kind: cf.CmdLockSetRecord, Conn: "SYS2", Name: "N2", Mode: cf.Share},
		{Kind: cf.CmdLockDelRecord, Conn: "SYS1", Name: "N1"},
		{Kind: cf.CmdLockRecords, Conn: "SYS2"},
		{Kind: cf.CmdListPop, Conn: "SYS1"}, // wrong model
	},
	cf.CacheModel: {
		{Kind: cf.CmdCacheRead, Conn: "SYS2", Name: "N1", VecIdx: 1},
		{Kind: cf.CmdCacheRead, Conn: "SYS2", Name: "MISSING", VecIdx: 2},
		{Kind: cf.CmdCacheWrite, Conn: "SYS2", Name: "N1", Data: []byte("v2"), Cache: true, Changed: true, VecIdx: 1},
		{Kind: cf.CmdCacheWrite, Conn: "NOBODY", Name: "N3", Data: []byte("x"), Cache: true},
		{Kind: cf.CmdCacheCastoutBegin, Conn: "SYS1", Name: "N1"},
		{Kind: cf.CmdCacheCastoutBegin, Conn: "SYS2", Name: "N1"}, // castout lock held
		{Kind: cf.CmdCacheCastoutBegin, Conn: "SYS1", Name: "MISSING"},
		{Kind: cf.CmdCacheCastoutEnd, Conn: "SYS1", Name: "N1", Version: 2},
		{Kind: cf.CmdCacheUnregister, Conn: "SYS2", Name: "N1"},
		{Kind: cf.CmdCacheConnect, Conn: "SYS3"}, // nil vector
	},
	cf.ListModel: {
		{Kind: cf.CmdListWrite, Conn: "SYS1", Idx: 0, Name: "A", Key: "2", Data: []byte("a"), Order: cf.Keyed},
		{Kind: cf.CmdListWrite, Conn: "SYS2", Idx: 0, Name: "B", Key: "1", Data: []byte("b"), Order: cf.Keyed},
		{Kind: cf.CmdListWrite, Conn: "SYS1", Idx: 9, Name: "C"},
		{Kind: cf.CmdListReadFirst, Conn: "SYS1", Idx: 0},
		{Kind: cf.CmdListSetLock, Idx: 0, Conn: "SYS1"},
		{Kind: cf.CmdListSetLock, Idx: 0, Conn: "SYS2"},                                     // lock held
		{Kind: cf.CmdListPop, Conn: "SYS2", Idx: 0, Cond: cf.Cond{Use: true, LockIndex: 0}}, // quiesced
		{Kind: cf.CmdListPop, Conn: "SYS1", Idx: 0, Cond: cf.Cond{Use: true, LockIndex: 0}},
		{Kind: cf.CmdListReleaseLock, Idx: 0, Conn: "SYS1"},
		{Kind: cf.CmdListMove, Conn: "SYS1", Name: "A", Idx: 2, Order: cf.LIFO},
		{Kind: cf.CmdListSetAdjunct, Conn: "SYS1", Name: "A", Key: "adj"},
		{Kind: cf.CmdListRead, Conn: "SYS1", Name: "A"},
		{Kind: cf.CmdListRead, Conn: "SYS1", Name: "MISSING"},
		{Kind: cf.CmdListDelete, Conn: "SYS1", Name: "MISSING"},
		{Kind: cf.CmdListDelete, Conn: "NOBODY", Name: "A"},
		{Kind: cf.CmdListMonitor, Conn: "SYS1", Idx: 3, VecIdx: 3},
		{Kind: cf.CmdListUnmonitor, Conn: "SYS1", Idx: 3},
		{Kind: cf.Kind(0)}, // unknown kind
	},
}

// TestConformanceScript is check (b): one scripted sequence per model
// against an in-process replica, a duplexed pair, and a cflink client's
// replica handle must produce identical replies, identical error
// sentinels, and identical final state.
func TestConformanceScript(t *testing.T) {
	for _, model := range []cf.Model{cf.LockModel, cf.CacheModel, cf.ListModel} {
		t.Run(model.String(), func(t *testing.T) {
			var want []outcome
			var wantState map[string]outcome
			for _, kind := range targetKinds {
				tg := newTarget(t, kind)
				tg.prepare(t, model)
				// The duplexed target runs the script through the
				// front; the other two straight at one replica handle
				// (in-process structure / wire handle).
				var x cf.Executor = tg.nodes[0].Structure(confStructure)
				if kind == "duplexed" {
					x = execFunc(func(ctx context.Context, c cf.Cmd) (cf.Reply, error) {
						return tg.front.Exec(ctx, confStructure, c)
					})
				}
				var got []outcome
				for _, c := range confScripts[model] {
					got = append(got, outcomeOf(x.Exec(context.Background(), c)))
				}
				state := tg.state(model)
				if want == nil {
					want, wantState = got, state
					continue
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s: step %d (%v): %+v, %s gave %+v", kind, i, confScripts[model][i].Kind, got[i], targetKinds[0], want[i])
					}
				}
				if !reflect.DeepEqual(state, wantState) {
					t.Errorf("%s: final state %+v, %s ended at %+v", kind, state, targetKinds[0], wantState)
				}
			}
		})
	}
}

type execFunc func(ctx context.Context, c cf.Cmd) (cf.Reply, error)

func (f execFunc) Exec(ctx context.Context, c cf.Cmd) (cf.Reply, error) { return f(ctx, c) }

// issueModes are the three ways a front takes a command.
var issueModes = []struct {
	name  string
	issue func(ctx context.Context, d *cf.Duplexed, c cf.Cmd) (cf.Reply, error)
}{
	{"sync", func(ctx context.Context, d *cf.Duplexed, c cf.Cmd) (cf.Reply, error) {
		return d.Exec(ctx, confStructure, c)
	}},
	{"batch", func(ctx context.Context, d *cf.Duplexed, c cf.Cmd) (cf.Reply, error) {
		return soleSub(d.Exec(ctx, confStructure, cf.Cmd{Kind: cf.CmdBatch, Sub: []cf.Cmd{c}}))
	}},
	{"async", func(ctx context.Context, d *cf.Duplexed, c cf.Cmd) (cf.Reply, error) {
		comp, err := d.RunAsync(ctx, confStructure, c)
		if err != nil {
			return cf.Reply{}, err
		}
		return soleSub(comp.Reply())
	}},
}

// soleSub unwraps a one-command envelope's outcome.
func soleSub(r cf.Reply, err error) (cf.Reply, error) {
	if err != nil {
		return cf.Reply{}, err
	}
	if r.Sub == nil {
		return cf.Reply{}, r.Errs[0]
	}
	return r.Sub[0], r.Errs[0]
}

// TestEveryMutatingKindBatchAndAsync is check (c): every mutating kind
// of the table, issued as a one-command envelope through Batch and
// through the async context, gives the outcome and leaves the state of
// the synchronous call — on an in-process front, a duplexed pair and a
// pair of cflink clients, for a successful command, a logically failing
// one, a cancelled one (no effect anywhere), and one that hits a dead
// primary (failed over and re-driven).
func TestEveryMutatingKindBatchAndAsync(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		conn     string
		ctx      context.Context
		failover bool
	}{
		{name: "ok", conn: "SYS1", ctx: context.Background()},
		{name: "not-connected", conn: "NOBODY", ctx: context.Background()},
		{name: "cancelled", conn: "SYS1", ctx: cancelled},
		{name: "failover", conn: "SYS1", ctx: context.Background(), failover: true},
	}
	wantCancelled := outcomeOf(cf.Reply{}, context.Canceled).Err
	for _, k := range allKinds() {
		if k.Order() == cf.OpRead || k == cf.CmdBatch {
			continue
		}
		for _, tc := range cases {
			t.Run(k.String()+"/"+tc.name, func(t *testing.T) {
				var want outcome
				var wantState map[string]outcome
				first := ""
				for _, kind := range targetKinds {
					if tc.failover && kind == "in-process" {
						continue // simplex: nothing to fail over to
					}
					for _, mode := range issueModes {
						tg := newTarget(t, kind)
						tg.prepare(t, k.Model())
						before := tg.state(k.Model())
						if tc.failover {
							tg.nodes[0].Fail()
						}
						got := outcomeOf(mode.issue(tc.ctx, tg.front, fillCmd(k, tc.conn)))
						state := tg.state(k.Model())
						at := kind + "/" + mode.name

						if tc.ctx.Err() != nil && (got.Err != wantCancelled || !reflect.DeepEqual(state, before)) {
							t.Errorf("%s: cancelled command: outcome %+v, state changed: %v", at, got, !reflect.DeepEqual(state, before))
						}
						if tc.failover {
							if n := tg.front.Metrics().Counter("cfrm.failover.count").Value(); n != 1 {
								t.Errorf("%s: %d failovers, want 1", at, n)
							}
						}
						if first == "" {
							want, wantState, first = got, state, at
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: outcome %+v, %s gave %+v", at, got, first, want)
						}
						if !reflect.DeepEqual(state, wantState) {
							t.Errorf("%s: state %+v, %s left %+v", at, state, first, wantState)
						}
					}
				}
			})
		}
	}
}

// TestValidateBatchBothEnds: mixed-model, empty and oversized envelopes
// are rejected on the client side of the link (nothing is sent) and on
// the server side (a hand-built frame).
func TestValidateBatchBothEnds(t *testing.T) {
	srv, network, addr := startServer(t, "CF01")
	c := dialT(t, network, addr, WithSystem("SYSA"))
	ctx := context.Background()
	ls, err := c.AllocateLockStructure("IRLM", 8)
	if err != nil {
		t.Fatal(err)
	}
	over := make([]cf.Cmd, cf.MaxBatchOps+1)
	for i := range over {
		over[i] = cf.Cmd{Kind: cf.CmdLockRelease, Conn: "SYSA", Mode: cf.Share}
	}
	bad := map[string][]cf.Cmd{
		"empty":       nil,
		"mixed-model": {{Kind: cf.CmdLockRelease, Conn: "SYSA", Mode: cf.Share}, {Kind: cf.CmdListDelete, Conn: "SYSA", Name: "x"}},
		"oversized":   over,
		"nested":      {{Kind: cf.CmdBatch}},
	}
	sent := c.Metrics().Counter("cflink.cmd.count").Value()
	for name, cmds := range bad {
		if _, err := ls.Batch(ctx, cmds); !errors.Is(err, cf.ErrBadArgument) {
			t.Errorf("client end, %s envelope: %v, want ErrBadArgument", name, err)
		}
	}
	if n := c.Metrics().Counter("cflink.cmd.count").Value(); n != sent {
		t.Errorf("%d rejected envelopes crossed the link", n-sent)
	}
	// Server end: the same envelopes as raw frames (oversized and nested
	// ones are already refused by the decoder).
	conn := rawCommandConn(t, network, addr, "SYSB")
	id := uint64(0)
	for name, cmds := range bad {
		id++
		var e encoder
		e.uvarint(id)
		e.u8(opExec)
		e.string("IRLM")
		env := cf.Cmd{Kind: cf.CmdBatch, Sub: cmds}
		e.cmd(&env, newVecMap().id)
		if err := writeFrame(conn, e.b); err != nil {
			t.Fatal(err)
		}
		if reqID, code, _ := readReply(t, conn); reqID != id || code == codeOK {
			t.Errorf("server end, %s envelope: reply id %d code %d, want an error", name, reqID, code)
		}
	}
	if n := srv.Facility().Metrics().Counter("cf.cmd.lock.release").Value(); n != 0 {
		t.Errorf("%d subcommands of rejected envelopes ran", n)
	}
}
