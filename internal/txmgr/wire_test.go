package txmgr

import (
	"errors"
	"reflect"
	"testing"

	"sysplex/internal/wire"
)

// TestMsgRejectsOldImage: a routing message in the JSON layout earlier
// builds sent fails to decode by name.
func TestMsgRejectsOldImage(t *testing.T) {
	old := []byte(`{"kind":"run","req":7,"program":"DEPOSIT","input":"eA=="}`)
	if _, err := decodeMsg(old); !errors.Is(err, wire.ErrLayout) {
		t.Fatalf("decode of a JSON message: %v, want wire.ErrLayout", err)
	}
}

// FuzzMsg round-trips a routing message and feeds arbitrary bytes to its
// decoder, which must fail by name and never panic.
func FuzzMsg(f *testing.F) {
	run := wireMsg{Kind: kindRun, Req: 9, Program: "DEPOSIT", Input: []byte("acct=1")}
	f.Add(uint8(kindQuery), uint64(1), "SUM", []byte("in"), []byte("out"), "boom", "ACCT", -3, 12, "sum", "A", int64(-5), int64(1<<40), run.encode())
	f.Add(uint8(0), uint64(0), "", []byte{}, []byte(nil), "", "", 0, 0, "", "", int64(0), int64(0), []byte(`{"kind":"run"}`))
	f.Fuzz(func(t *testing.T, kind uint8, req uint64, program string, input, output []byte, errText, table string, lo, hi int, op, prefix string, count, sum int64, raw []byte) {
		want := wireMsg{Kind: wireKind(kind), Req: req, Program: program, Input: input, Output: output, Error: errText,
			Table: table, Lo: lo, Hi: hi, Op: op, Prefix: prefix, Count: count, Sum: sum}
		got, err := decodeMsg(want.encode())
		if len(want.Input) == 0 {
			want.Input = nil
		}
		if len(want.Output) == 0 {
			want.Output = nil
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
		if _, err := decodeMsg(raw); err != nil && !errors.Is(err, wire.ErrLayout) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("decode error %v is neither ErrLayout nor ErrMalformed", err)
		}
	})
}
