package datagen_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/skyline"
	"mrskyline/internal/tuple"
)

func TestDeterminism(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		a := datagen.Generate(dist, 500, 4, 42)
		b := datagen.Generate(dist, 500, 4, 42)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ", dist)
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%v: tuple %d differs: %v vs %v", dist, i, a[i], b[i])
			}
		}
		c := datagen.Generate(dist, 500, 4, 43)
		same := true
		for i := range a {
			if !a[i].Equal(c[i]) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%v: different seeds produced identical data", dist)
		}
	}
}

func TestShapeAndBounds(t *testing.T) {
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		for _, d := range []int{1, 2, 5, 10} {
			data := datagen.Generate(dist, 300, d, 7)
			if len(data) != 300 {
				t.Fatalf("%v d=%d: len=%d", dist, d, len(data))
			}
			if err := data.Validate(); err != nil {
				t.Fatalf("%v d=%d: %v", dist, d, err)
			}
			for i, tp := range data {
				if len(tp) != d {
					t.Fatalf("%v: tuple %d has dim %d", dist, i, len(tp))
				}
				for k, v := range tp {
					if v < 0 || v >= 1 {
						t.Fatalf("%v: tuple %d dim %d = %v outside [0,1)", dist, i, k, v)
					}
				}
			}
		}
	}
}

// pearson computes the sample correlation of dimensions a and b.
func pearson(data tuple.List, a, b int) float64 {
	n := float64(len(data))
	var sa, sb, saa, sbb, sab float64
	for _, t := range data {
		sa += t[a]
		sb += t[b]
		saa += t[a] * t[a]
		sbb += t[b] * t[b]
		sab += t[a] * t[b]
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	return cov / math.Sqrt(va*vb)
}

func TestDistributionCharacter(t *testing.T) {
	const card = 8000
	indep := datagen.Generate(datagen.Independent, card, 2, 3)
	if r := pearson(indep, 0, 1); math.Abs(r) > 0.08 {
		t.Errorf("independent correlation = %v, want ≈ 0", r)
	}
	corr := datagen.Generate(datagen.Correlated, card, 2, 3)
	if r := pearson(corr, 0, 1); r < 0.5 {
		t.Errorf("correlated correlation = %v, want strongly positive", r)
	}
	anti := datagen.Generate(datagen.AntiCorrelated, card, 2, 3)
	if r := pearson(anti, 0, 1); r > -0.5 {
		t.Errorf("anti-correlated correlation = %v, want strongly negative", r)
	}
}

func TestSkylineSizeOrdering(t *testing.T) {
	// The paper's premise: |skyline(anti)| ≫ |skyline(indep)| ≫
	// |skyline(corr)| at the same shape.
	const card, d = 4000, 4
	sizes := map[datagen.Distribution]int{}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.Correlated, datagen.AntiCorrelated} {
		data := datagen.Generate(dist, card, d, 11)
		sizes[dist] = len(skyline.BNL(data, nil))
	}
	if !(sizes[datagen.AntiCorrelated] > sizes[datagen.Independent] &&
		sizes[datagen.Independent] > sizes[datagen.Correlated]) {
		t.Errorf("skyline sizes anti=%d indep=%d corr=%d violate expected ordering",
			sizes[datagen.AntiCorrelated], sizes[datagen.Independent], sizes[datagen.Correlated])
	}
}

func TestDistributionString(t *testing.T) {
	if datagen.Independent.String() != "independent" ||
		datagen.Correlated.String() != "correlated" ||
		datagen.AntiCorrelated.String() != "anticorrelated" {
		t.Error("Distribution.String wrong")
	}
	if !strings.Contains(datagen.Distribution(9).String(), "9") {
		t.Error("unknown Distribution.String wrong")
	}
}

func TestParseDistribution(t *testing.T) {
	for s, want := range map[string]datagen.Distribution{
		"independent": datagen.Independent, "indep": datagen.Independent, "uniform": datagen.Independent,
		"correlated": datagen.Correlated, "corr": datagen.Correlated,
		"anticorrelated": datagen.AntiCorrelated, "anti": datagen.AntiCorrelated, "anti-correlated": datagen.AntiCorrelated,
	} {
		got, err := datagen.ParseDistribution(s)
		if err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := datagen.ParseDistribution("zipf"); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestGenerateZeroCard(t *testing.T) {
	if got := datagen.Generate(datagen.Independent, 0, 3, 1); len(got) != 0 {
		t.Errorf("zero cardinality produced %d tuples", len(got))
	}
}

func TestGenerateInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	datagen.Generate(datagen.Independent, 10, 0, 1)
}

// TestCSVRoundTrip: WriteCSV's lines read back bit for bit, and each
// value is written as strconv.FormatFloat(v, 'g', -1, 64) writes it, on
// generated tuples and on the values whose shortest form takes a sign, an
// exponent or the most digits.
func TestCSVRoundTrip(t *testing.T) {
	data := datagen.Generate(datagen.AntiCorrelated, 200, 5, 9)
	data = append(data,
		tuple.Tuple{math.Copysign(0, -1), 0, 5e-324, math.MaxFloat64, 1e21},
		tuple.Tuple{1e-7, -1e20, 0.1, 1.0 / 3, -123456789012345678},
	)
	var want strings.Builder
	for _, tu := range data {
		for k, v := range tu {
			if k > 0 {
				want.WriteByte(',')
			}
			want.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		want.WriteByte('\n')
	}
	var buf bytes.Buffer
	if err := datagen.WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Errorf("WriteCSV's bytes differ from FormatFloat's per value")
	}
	back, err := datagen.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("round trip length %d, want %d", len(back), len(data))
	}
	for i := range data {
		for k := range data[i] {
			if math.Float64bits(back[i][k]) != math.Float64bits(data[i][k]) {
				t.Fatalf("tuple %d: %v != %v", i, back[i], data[i])
			}
		}
	}
}

func TestReadCSVCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n\n0.1,0.2\n  \n0.3,0.4\n"
	got, err := datagen.ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(tuple.Tuple{0.1, 0.2}) || !got[1].Equal(tuple.Tuple{0.3, 0.4}) {
		t.Errorf("ReadCSV = %v", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := datagen.ReadCSV(strings.NewReader("0.1,zzz\n")); err == nil {
		t.Error("garbage field accepted")
	}
	if _, err := datagen.ReadCSV(strings.NewReader("0.1,0.2\n0.3\n")); err == nil {
		t.Error("ragged dimensionality accepted")
	}
	if _, err := datagen.ReadCSV(strings.NewReader("0.1,NaN\n")); err == nil {
		t.Error("NaN accepted")
	}
}

func BenchmarkGenerateAntiCorrelated(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		datagen.Generate(datagen.AntiCorrelated, 1000, 8, int64(i))
	}
}
