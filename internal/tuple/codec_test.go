package tuple

import (
	"bytes"
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

// randomList returns n random d-dimensional tuples.
func randomList(rng *rand.Rand, n, d int) List {
	l := make(List, n)
	for i := range l {
		l[i] = make(Tuple, d)
		for k := range l[i] {
			l[i][k] = rng.NormFloat64()
		}
	}
	return l
}

// TestListRoundTrip: a list's column list decodes back to the list, from
// EncodeList and from AppendColumns over the list's columns alike, and
// several lists decode into one answer in order.
func TestListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(8)
		l, m := randomList(rng, rng.Intn(40), d), randomList(rng, rng.Intn(5), d)
		enc := EncodeList(l)
		cols := make([][]float64, d)
		for k := range cols {
			for _, u := range l {
				cols[k] = append(cols[k], u[k])
			}
		}
		if !bytes.Equal(AppendColumns(nil, cols), enc) || len(enc) != ColumnsSize(len(l), d) {
			t.Fatalf("trial %d: AppendColumns and EncodeList disagree, or ColumnsSize(%d, %d) = %d is not %d", trial, len(l), d, ColumnsSize(len(l), d), len(enc))
		}
		dec, err := DecodeColumns(d, enc, EncodeList(m))
		if err != nil {
			t.Fatalf("DecodeColumns: %v", err)
		}
		if want := append(slices.Clone(l), m...); !slices.EqualFunc(dec, want, Tuple.Equal) {
			t.Fatalf("trial %d: decoded %v, want %v", trial, dec, want)
		}
	}
}

// TestListDecodeSharesOneBacking pins what a decoded answer costs and that
// sharing a backing array is not observable: two allocations whatever the
// count or the number of lists, and a tuple that cannot be appended into
// its neighbour.
func TestListDecodeSharesOneBacking(t *testing.T) {
	l := make(List, 100)
	for i := range l {
		l[i] = Tuple{float64(i), float64(-i), 0.5}
	}
	enc := EncodeList(l)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeColumns(3, enc, enc, enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("DecodeColumns of 3 × %d tuples: %v allocations, want at most 2", len(l), allocs)
	}
	dec, err := DecodeColumns(3, enc, enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(dec[0], 99)
	_ = append(dec[len(l)-1], 99)
	if !dec[1].Equal(l[1]) || !dec[len(l)].Equal(l[0]) {
		t.Errorf("appending to a tuple wrote into its neighbour: %v, %v", dec[1], dec[len(l)])
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = AppendColumns(enc[:0], [][]float64{{1, 2}, {3, 4}, {5, 6}}) }); allocs != 0 {
		t.Errorf("AppendColumns into a large-enough buffer: %v allocations", allocs)
	}
}

func TestListDecodeTruncated(t *testing.T) {
	enc := EncodeList(List{{1, 2}, {3, 4}})
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeColumns(2, enc[:i]); err == nil {
			t.Errorf("DecodeColumns of %d/%d bytes succeeded unexpectedly", i, len(enc))
		}
		if _, _, _, err := SplitColumns(enc[:i], 2); err == nil {
			t.Errorf("SplitColumns of %d/%d bytes succeeded unexpectedly", i, len(enc))
		}
	}
}

func TestListDecodeImplausibleCount(t *testing.T) {
	// A header claiming 2^42 tuples in a few bytes must error, not OOM.
	b := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, err := DecodeColumns(1, b); err == nil {
		t.Error("implausible count accepted")
	}
}

// TestColumnsGoldenBytes pins one column list byte for byte: the count,
// then column 0 of every tuple, then column 1, little endian.
func TestColumnsGoldenBytes(t *testing.T) {
	got := EncodeList(List{{1, -2}, {0.5, 3}})
	want := []byte{
		0x02,                                           // count
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // 0.5
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, // -2
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, // 3
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeList = % x\nwant          % x", got, want)
	}
	n, body, size, err := SplitColumns(append(got, 0xEE), 2)
	if err != nil || n != 2 || size != len(want) || !bytes.Equal(body, want[1:]) {
		t.Fatalf("SplitColumns = %d, % x, %d, %v", n, body, size, err)
	}
	col := make([]float64, 2)
	DecodeColumn(col, body, 1)
	if col[0] != -2 || col[1] != 3 {
		t.Errorf("column 1 decoded to %v", col)
	}
}

// TestColumnsMalformed: every way a column list can be wrong is an error
// from DecodeColumns, never a panic or a short answer.
func TestColumnsMalformed(t *testing.T) {
	one := EncodeList(List{{1, 2}, {3, 4}})
	for name, c := range map[string]struct {
		dim int
		b   []byte
	}{
		"empty":                   {2, nil},
		"truncated header":        {2, []byte{0x80}},
		"count beyond the buffer": {2, []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0}},
		"short column":            {2, one[:len(one)-1]},
		"trailing bytes":          {2, append(slices.Clone(one), 0)},
		"wider than the data":     {3, one},
		"non-minimal count":       {2, append([]byte{0x82, 0x00}, one[1:]...)},
		"no dimension":            {0, one},
		"count overflows":         {2, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	} {
		if l, err := DecodeColumns(c.dim, c.b); err == nil {
			t.Errorf("%s: decoded %v", name, l)
		}
	}
}

// FuzzColumnsRoundTrip: decoding arbitrary bytes as a column list either
// fails or yields tuples that encode back to exactly those bytes; it never
// panics.
func FuzzColumnsRoundTrip(f *testing.F) {
	f.Add(uint8(1), EncodeList(List{{1, -2}, {0.5, 3}}))
	f.Add(uint8(0), []byte{0x00})
	f.Add(uint8(4), []byte{0x80, 0x01})
	f.Fuzz(func(t *testing.T, dim uint8, b []byte) {
		d := int(dim%8) + 1
		l, err := DecodeColumns(d, b)
		if err != nil {
			return
		}
		if enc := EncodeList(l); !bytes.Equal(enc, b) {
			t.Fatalf("%d-dimensional % x decoded to %v, which encodes to % x", d, b, l, enc)
		}
	})
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
