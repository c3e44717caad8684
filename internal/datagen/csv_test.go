package datagen_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/tuple"
)

// referenceReadCSV is ReadCSV before it parsed in place: a string per
// line, strings.Split, a tuple per line, one Validate at the end.
func referenceReadCSV(r io.Reader) (tuple.List, error) {
	var out tuple.List
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		t := make(tuple.Tuple, len(fields))
		for k, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("datagen: line %d field %d: %w", lineNo, k+1, err)
			}
			t[k] = v
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("datagen: reading CSV: %w", err)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// TestReadCSVMatchesReference: ReadCSV returns the reference's tuples bit
// for bit, or fails with its error text, on what a hand-written or foreign
// CSV holds: comments, blank lines, CRLF line ends, tabs and the Unicode
// spaces TrimSpace trims, what strconv.ParseFloat accepts beyond decimals
// (Inf, hex floats, underscores it rejects), empty fields, ragged rows
// before and after a parse error, and a line past the scanner's 1 MiB.
func TestReadCSVMatchesReference(t *testing.T) {
	long := strings.Repeat("0.5,", 300_000) + "0.5\n"
	for _, in := range []string{
		"",
		"\n\n",
		"# only a comment\n",
		"# header\n\n0.1,0.2\n  \n0.3,0.4\n#0.5,0.6\n",
		"0.1,0.2\r\n0.3,0.4\r\n",
		"\t0.1\t,\t0.2 \n 0.3 , 0.4\t\n",
		" 0.1, 0.2\u3000\n\u00850.3 ,0.4\ufeff\n",
		"\ufeff0.1,0.2\n",
		"0.1,0.2\n0.3\u200b,0.4\n",
		"-0,5e-324\n1.7976931348623157e308,1E+2\n",
		"Inf,1\n",
		"0.1,-inf\n",
		"0x1p-2,0X1P+3\n",
		"1_000,2\n",
		"NaN,0\n",
		"nan,0\n",
		"1e400,0\n",
		"0.1,\n",
		",0.1\n",
		"0.1,,0.2\n",
		"0.1;0.2\n",
		"0.1,0.2\n0.3\n",
		"0.1\n0.2,0.3\n0.4\n",
		"0.1,0.2\n0.3\n0.4,zzz\n",
		"0.1,0.2\nInf,0.3\n0.4\n",
		"0.1,0.2,0.3",
		"0.1,0.2\n" + long,
		long + "0.1,zzz\n",
	} {
		got, err := datagen.ReadCSV(strings.NewReader(in))
		want, wantErr := referenceReadCSV(strings.NewReader(in))
		name := in
		if len(name) > 40 {
			name = name[:40] + "…"
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%q: error %v, want %v", name, err, wantErr)
			continue
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Errorf("%q: %d tuples (nil %v), want %d (nil %v)", name, len(got), got == nil, len(want), want == nil)
			continue
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Errorf("%q: tuple %d is %v, want %v", name, i, got[i], want[i])
				continue
			}
			for k := range want[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
					t.Errorf("%q: tuple %d is %v, want %v", name, i, got[i], want[i])
				}
			}
		}
	}
}

func csvOf(tb testing.TB, card, d int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := datagen.WriteCSV(&buf, datagen.Generate(datagen.Independent, card, d, 7)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVAllocs: reading a CSV costs the same number of allocations
// at 100 and at 100 000 lines, up to the steps by which the value buffer
// grows (≈ 1.25× a step), and the tuples hold no more memory than their
// values and headers: one exactly sized block, not a tuple per allocation
// or a block with room to spare.
func TestReadCSVAllocs(t *testing.T) {
	const n, d = 100_000, 3
	in := csvOf(t, n, d)
	var l tuple.List
	held := heldBy(func() {
		var err error
		if l, err = datagen.ReadCSV(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	runtime.KeepAlive(in)
	runtime.KeepAlive(l)
	if want := uint64(n * (d*8 + 24)); held > want+64<<10 {
		t.Errorf("%d tuples of %d hold %d bytes, want %d: the block is not exactly sized", n, d, held, want)
	}
	for i, tu := range l {
		if cap(tu) != len(tu) {
			t.Fatalf("tuple %d has capacity %d for %d values", i, cap(tu), len(tu))
		}
	}

	allocs := func(n int) float64 {
		in := csvOf(t, n, d)
		rd := bytes.NewReader(in)
		return testing.AllocsPerRun(2, func() {
			rd.Reset(in)
			if _, err := datagen.ReadCSV(rd); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(n)
	t.Logf("allocations per read: %v at 100 lines, %v at %d; %d bytes held", small, large, n, held)
	if large > small+40 {
		t.Errorf("%v allocations at %d lines, %v at 100: the read allocates per line", large, n, small)
	}
}

// heldBy returns how many more heap bytes are live after fn than before;
// the caller keeps what fn built, and what fn read, reachable past it.
func heldBy(fn func()) uint64 {
	var before, after runtime.MemStats
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// BenchmarkReadCSV reads the batch-indep dataset's CSV, 150 000 × 3; its
// reference sub-benchmark reads it as ReadCSV did before it parsed in
// place.
func BenchmarkReadCSV(b *testing.B) {
	in := csvOf(b, 150_000, 3)
	for _, bc := range []struct {
		name string
		read func(io.Reader) (tuple.List, error)
	}{{"flat", datagen.ReadCSV}, {"reference", referenceReadCSV}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				if _, err := bc.read(bytes.NewReader(in)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteCSV writes the batch-indep dataset, 150 000 × 3.
func BenchmarkWriteCSV(b *testing.B) {
	l := datagen.Generate(datagen.Independent, 150_000, 3, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := datagen.WriteCSV(io.Discard, l); err != nil {
			b.Fatal(err)
		}
	}
}
