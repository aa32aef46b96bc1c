package logr

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sysplex/internal/dasd"
	"sysplex/internal/wire"
)

// TestTrailingZeroPayloads: a payload ending in zero bytes comes back
// byte-identical from interim storage, from an offload block, and from a
// staging block after a cold restart. Every block carries its envelopes'
// lengths, so the zero padding after one is never read as part of it.
func TestTrailingZeroPayloads(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx := durableFixture(t, dir, "SYSA")
	s := fx.connect(t, durableSpec)["SYSA"]
	want := map[string]bool{}
	write := func(n int) {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("z-%02d\x00\x00", len(want))
			if _, err := s.Write(ctx, []byte(p)); err != nil {
				t.Fatalf("write %q: %v", p, err)
			}
			want[p] = true
		}
	}
	write(20)
	assertExactlyOnce(t, s, want) // from interim
	if n, err := s.Offload(ctx); err != nil || n == 0 {
		t.Fatalf("offload moved %d records: %v", n, err)
	}
	write(3)
	assertExactlyOnce(t, s, want) // from offload blocks and interim

	// Cold restart: the CF interim image is gone, so the records above
	// the frontier come back from staging.
	dasd.PowerCutFarm(fx.farm)
	fx2 := durableFixture(t, dir, "SYSA")
	assertExactlyOnce(t, fx2.connect(t, durableSpec)["SYSA"], want)
	if n := fx2.mgrs["SYSA"].Metrics().Counter("logr.recover.records").Value(); n == 0 {
		t.Fatal("no record came back from staging")
	}
}

// FuzzEnvelope round-trips a record envelope, alone and packed in a
// block, and feeds arbitrary bytes to both decoders, which must fail by
// name and never panic.
func FuzzEnvelope(f *testing.F) {
	env := envelope{K: keyZeros, S: "SYS1", T: 1700000000, D: []byte("x\x00")}
	f.Add("00000000000000000042", "SYSA", int64(-1), []byte{0, 0}, env.encode())
	f.Add("", "", int64(0), []byte(nil), packEnvelope(nil, env.encode()))
	f.Add("k", "s", int64(1), []byte("d"), []byte(`{"k":"1","s":"SYS1","t":1,"d":"eA=="}`))
	f.Fuzz(func(t *testing.T, k, sys string, stamp int64, data, raw []byte) {
		want := envelope{K: k, S: sys, T: stamp, D: data}
		img := want.encode()
		if len(want.D) == 0 {
			want.D = nil
		}
		if got, err := decodeEnvelope(img); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: %+v, %v; want %+v", got, err, want)
		}
		if fits(nil, img) {
			blk := append(packEnvelope(nil, img), make([]byte, 8)...) // zero padding
			if got, err := blockEnvelopes(blk); err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
				t.Fatalf("block round trip: %+v, %v; want %+v", got, err, want)
			}
		}
		if _, err := decodeEnvelope(raw); err != nil && !errors.Is(err, wire.ErrLayout) && !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("envelope decode error %v is neither ErrLayout nor ErrMalformed", err)
		}
		if _, err := blockEnvelopes(raw); err != nil && !errors.Is(err, ErrBlockLayout) {
			t.Fatalf("block decode error %v is not ErrBlockLayout", err)
		}
	})
}

// TestOldStagingBlockRefused: a staging block holding another layout —
// the bare JSON envelope earlier builds staged — fails the cold restart
// by name instead of being skipped with its acknowledged record.
func TestOldStagingBlockRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx := durableFixture(t, dir, "SYSA")
	s := fx.connect(t, durableSpec)["SYSA"]
	rec, err := s.Write(ctx, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"k":%q,"s":"SYSA","t":%d,"d":"eA=="}`, rec.Key, rec.Time.UnixNano())
	if err := s.stg[s.stgAct].Write("SYSA", 0, []byte(old)); err != nil {
		t.Fatal(err)
	}
	if err := s.stg[s.stgAct].Sync(); err != nil {
		t.Fatal(err)
	}
	dasd.PowerCutFarm(fx.farm)

	fx2 := durableFixture(t, dir, "SYSA")
	if _, err := fx2.mgrs["SYSA"].Connect(ctx, durableSpec); !errors.Is(err, ErrBlockLayout) {
		t.Fatalf("cold restart over a JSON staging block: %v, want ErrBlockLayout", err)
	}
}
