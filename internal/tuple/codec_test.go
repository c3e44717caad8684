package tuple

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		orig := Tuple(vals)
		enc := Encode(orig)
		dec, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if len(dec) != len(orig) {
			return false
		}
		for i := range dec {
			// Use bit-level equality so NaN round-trips too.
			if !bytes.Equal(Encode(Tuple{dec[i]}), Encode(Tuple{orig[i]})) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := Encode(Tuple{1, 2, 3})
	for i := 0; i < len(enc); i++ {
		if _, _, err := Decode(enc[:i]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded unexpectedly", i, len(enc))
		}
	}
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
}

func TestDecodeInto(t *testing.T) {
	orig := Tuple{1, -2.5, 3e300}
	enc := Encode(orig)

	// Truncated header, truncated payload: Decode's errors, dst untouched.
	dst := Tuple{7, 8, 9}
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeInto(dst, enc[:i]); err == nil {
			t.Errorf("DecodeInto of %d/%d bytes succeeded unexpectedly", i, len(enc))
		}
	}
	if _, _, err := DecodeInto(dst, nil); err == nil {
		t.Error("DecodeInto(dst, nil) succeeded")
	}
	if !dst.Equal(Tuple{7, 8, 9}) {
		t.Errorf("failed decodes wrote dst: %v", dst)
	}

	// Room in dst: decoded in place, whatever len(dst) is.
	for _, dst := range []Tuple{{7, 8, 9}, make(Tuple, 0, 3), make(Tuple, 5)} {
		got, n, err := DecodeInto(dst, enc)
		if err != nil || n != len(enc) || !got.Equal(orig) {
			t.Fatalf("DecodeInto(len %d cap %d) = %v, %d, %v", len(dst), cap(dst), got, n, err)
		}
		if &got[0] != &dst[:1][0] {
			t.Errorf("DecodeInto(len %d cap %d) did not reuse dst", len(dst), cap(dst))
		}
	}

	// Short or nil dst: a fresh tuple, dst untouched.
	dst = Tuple{7, 8}
	for _, short := range []Tuple{dst, nil} {
		got, n, err := DecodeInto(short, enc)
		if err != nil || n != len(enc) || !got.Equal(orig) {
			t.Fatalf("DecodeInto(short) = %v, %d, %v", got, n, err)
		}
	}
	if !dst.Equal(Tuple{7, 8}) {
		t.Errorf("short dst written: %v", dst)
	}

	// A zero-dimensional tuple decodes to an empty, non-nil tuple, as
	// Decode's does: nil is the record decoders' "skip" answer.
	if got, _, err := Decode(Encode(Tuple{})); err != nil || got == nil || len(got) != 0 {
		t.Errorf("Decode(empty) = %#v, %v", got, err)
	}

	scratch := make(Tuple, len(orig))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeInto(scratch, enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto into a large-enough dst: %v allocs per call, want 0", n)
	}
}

func TestListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(8)
		n := rng.Intn(40)
		l := make(List, n)
		for i := range l {
			l[i] = make(Tuple, d)
			for k := range l[i] {
				l[i][k] = rng.NormFloat64()
			}
		}
		enc := EncodeList(l)
		dec, consumed, err := DecodeList(enc)
		if err != nil {
			t.Fatalf("DecodeList: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(enc))
		}
		if len(dec) != len(l) {
			t.Fatalf("len=%d want %d", len(dec), len(l))
		}
		for i := range l {
			if !dec[i].Equal(l[i]) {
				t.Fatalf("element %d: got %v want %v", i, dec[i], l[i])
			}
		}
	}
}

// TestListDecodeSharesOneBacking pins what a decoded list costs and that
// sharing a backing array is not observable: two allocations whatever the
// count, a tuple that cannot be appended into its neighbour, and lists of
// mixed dimensionality — first tuple narrower or wider than the rest —
// still round-tripping.
func TestListDecodeSharesOneBacking(t *testing.T) {
	l := make(List, 100)
	for i := range l {
		l[i] = Tuple{float64(i), float64(-i), 0.5}
	}
	enc := EncodeList(l)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeList(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("DecodeList of %d tuples: %v allocations, want at most 2", len(l), allocs)
	}
	dec, _, err := DecodeList(enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(dec[0], 99)
	if !dec[1].Equal(l[1]) {
		t.Errorf("appending to element 0 wrote into element 1: %v", dec[1])
	}
	for _, mixed := range []List{{{1}, {2, 3}, {4, 5, 6}, {}}, {{4, 5, 6}, {2, 3}, {}, {1}}, {{}, {1, 2}}} {
		dec, consumed, err := DecodeList(EncodeList(mixed))
		if err != nil || consumed != len(EncodeList(mixed)) || len(dec) != len(mixed) {
			t.Fatalf("DecodeList(%v) = %v, %d, %v", mixed, dec, consumed, err)
		}
		for i := range mixed {
			if !dec[i].Equal(mixed[i]) {
				t.Errorf("mixed list %v element %d: got %v", mixed, i, dec[i])
			}
		}
	}
}

func TestListDecodeTruncated(t *testing.T) {
	enc := EncodeList(List{{1, 2}, {3, 4}})
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeList(enc[:i]); err == nil {
			t.Errorf("DecodeList of %d/%d bytes succeeded unexpectedly", i, len(enc))
		}
	}
}

func TestListDecodeImplausibleCount(t *testing.T) {
	// A header claiming 2^40 tuples in a few bytes must error, not OOM.
	b := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, _, err := DecodeList(b); err == nil {
		t.Error("implausible count accepted")
	}
}

func TestConcatenatedDecode(t *testing.T) {
	// Multiple tuples can be streamed back-to-back.
	var buf []byte
	want := List{{1}, {2, 3}, {4, 5, 6}}
	for _, tp := range want {
		buf = AppendEncode(buf, tp)
	}
	var got List
	for len(buf) > 0 {
		tp, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tp)
		buf = buf[n:]
	}
	if !EqualAsSet(got, want) || len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func BenchmarkEncode(b *testing.B) {
	t := Tuple{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	var dst []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendEncode(dst[:0], t)
	}
}

func BenchmarkDecode(b *testing.B) {
	enc := Encode(Tuple{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanListMatchesDecodeList: ScanList hands fn exactly the tuples
// DecodeList decodes, in order, through one reused tuple, and consumes the
// same bytes, as does a nil fn; a truncated list fails both ways, and an
// error from fn stops the scan and comes back as it is. ListSize is the
// encoded length, across the uvarint widths of count and dimensionality.
func TestScanListMatchesDecodeList(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(6)
		l := make(List, rng.Intn(40))
		for i := range l {
			l[i] = make(Tuple, d)
			for k := range l[i] {
				l[i][k] = rng.NormFloat64()
			}
		}
		enc := append(EncodeList(l), 0xEE) // a neighbour's byte follows
		want, wn, err := DecodeList(enc)
		if err != nil {
			t.Fatal(err)
		}
		var got List
		var seen *float64
		count, n, err := ScanList(enc, nil, func(u Tuple) error {
			if seen != nil && &u[0] != seen {
				t.Fatalf("trial %d: ScanList decoded into a second tuple", trial)
			}
			seen, got = &u[0], append(got, u.Clone())
			return nil
		})
		if err != nil || count != len(want) || n != wn || !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("trial %d: ScanList %d tuples over %d bytes (%v), DecodeList %d over %d", trial, count, n, err, len(want), wn)
		}
		if count, n, err := ScanList(enc, nil, nil); err != nil || count != len(want) || n != wn {
			t.Fatalf("trial %d: scan without fn %d tuples over %d bytes (%v), want %d over %d", trial, count, n, err, len(want), wn)
		}
		if len(l) > 0 {
			for cut := 0; cut < wn; cut++ {
				if _, _, err := ScanList(enc[:cut], nil, nil); err == nil {
					t.Fatalf("trial %d: scan without fn accepted %d of %d bytes", trial, cut, wn)
				}
				if _, _, err := ScanList(enc[:cut], make(Tuple, d), func(Tuple) error { return nil }); err == nil {
					t.Fatalf("trial %d: ScanList accepted %d of %d bytes", trial, cut, wn)
				}
			}
			stop := errors.New("stop")
			calls := 0
			if _, _, err := ScanList(enc, nil, func(Tuple) error { calls++; return stop }); err != stop || calls != 1 {
				t.Fatalf("trial %d: fn's error came back as %v after %d calls", trial, err, calls)
			}
		}
	}
	for _, c := range []struct{ n, dim int }{{0, 3}, {1, 1}, {127, 5}, {128, 5}, {20000, 1}, {3, 127}, {3, 128}, {2, 300}} {
		l := make(List, c.n)
		for i := range l {
			l[i] = make(Tuple, c.dim)
		}
		if got, want := ListSize(c.n, c.dim), len(EncodeList(l)); got != want {
			t.Errorf("ListSize(%d, %d) = %d, encoded %d bytes", c.n, c.dim, got, want)
		}
	}
}
