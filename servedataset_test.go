package mrskyline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mrskyline/internal/skyline"
	"mrskyline/internal/skyline/window"
	"mrskyline/internal/tuple"
)

// mustGenerate is Generate for tests.
func mustGenerate(t testing.TB, dist string, card, dim int, seed int64) [][]float64 {
	t.Helper()
	rows, err := Generate(dist, card, dim, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func mustService(t testing.TB, cfg ServiceConfig) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// sameOutcome requires two query outcomes to agree: the same error text, or
// byte-identical skylines and equal Stats apart from Runtime.
func sameOutcome(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error %v, want %v", what, gotErr, wantErr)
		return
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got.Skyline, want.Skyline) {
		t.Errorf("%s: skyline of %d rows differs from the %d-row reference", what, len(got.Skyline), len(want.Skyline))
	}
	g, w := got.Stats, want.Stats
	g.Runtime, w.Runtime = 0, 0
	if g != w {
		t.Errorf("%s: stats %+v, want %+v", what, g, w)
	}
}

// source is one way rows reach a query: a registered handle (asked twice,
// so the second use runs from the kept plan) or, as with Service.Compute
// and skylined's inline "data", a fresh handle per request.
type source struct {
	name   string
	handle func() *Dataset
}

func querySources(svc *Service, h *Dataset, rows [][]float64) []source {
	kept := func() *Dataset { return h }
	return []source{{"handle first", kept}, {"handle again", kept}, {"service", func() *Dataset { return svc.Dataset(rows) }}}
}

// flip copies rows with the maximize dimensions negated; flipping
// skyline.Naive's answer over flipped rows is the oracle, which shares no
// code with the query path.
func flip[R ~[]float64](rows []R, maximize []bool) tuple.List {
	out := make(tuple.List, len(rows))
	for i, row := range rows {
		out[i] = append(tuple.Tuple(nil), row...)
		for k, m := range maximize {
			if m {
				out[i][k] = -row[k]
			}
		}
	}
	return out
}

func naiveSkyline(rows [][]float64, maximize []bool) tuple.List {
	return flip(skyline.Naive(flip(rows, maximize)), maximize)
}

// matchesNaive requires a successful query to return want as a multiset,
// with Stats counting it and a positive Runtime.
func matchesNaive(t *testing.T, what string, got *Result, err error, want tuple.List) {
	t.Helper()
	if err == nil && (!tuple.EqualAsMultiset(flip(got.Skyline, nil), want) || got.Stats.SkylineSize != len(want) || got.Stats.Runtime <= 0) {
		t.Errorf("%s: %d skyline rows, %+v; skyline.Naive has %d", what, len(got.Skyline), got.Stats, len(want))
	}
}

// TestDatasetHandleMatchesCompute: every source of rows — a handle on
// first use and from the kept plan, and rows sent through the Service —
// answers exactly what the package-level functions answer over the same
// rows, for every algorithm, orientation, PPD setting and three
// distributions, and that answer is skyline.Naive's over the constrained or
// projected rows. The handle keeps matching when the plan key alternates,
// on malformed rows and on no rows.
func TestDatasetHandleMatchesCompute(t *testing.T) {
	ctx := context.Background()
	svc := mustService(t, ServiceConfig{})
	mixed := []bool{false, true, false}
	box := []Range{{Min: 0.1, Max: 0.8}, Unbounded(), {Min: math.Inf(-1), Max: 0.9}}
	dims := []int{2, 0}

	for _, dist := range []string{"independent", "correlated", "anticorrelated"} {
		rows := mustGenerate(t, dist, 600, 3, 5)
		var inBox, projected [][]float64
		for _, row := range rows {
			if row[0] >= 0.1 && row[0] <= 0.8 && row[2] <= 0.9 {
				inBox = append(inBox, row)
			}
			projected = append(projected, []float64{row[2], row[0]})
		}
		sources := querySources(svc, svc.Dataset(rows), rows)
		orientations := []struct{ maximize, sub []bool }{{nil, nil}, {mixed, []bool{true, false}}}
		var naiveAll, naiveBox, naiveSub [2]tuple.List
		for i, o := range orientations {
			naiveAll[i], naiveBox[i], naiveSub[i] = naiveSkyline(rows, o.maximize), naiveSkyline(inBox, o.maximize), naiveSkyline(projected, o.sub)
		}
		for _, algo := range Algorithms() {
			for i, o := range orientations {
				for _, ppd := range []int{0, 4} {
					opts := Options{Algorithm: algo, Maximize: o.maximize, PPD: ppd}
					subOpts := opts
					subOpts.Maximize = o.sub
					what := fmt.Sprintf("%s %s maximize=%v ppd=%d", dist, algo, o.maximize, ppd)
					want, wantErr := Compute(rows, opts)
					wantC, wantCErr := ComputeConstrained(rows, box, opts)
					wantS, wantSErr := ComputeSubspace(rows, dims, subOpts)
					for _, src := range sources {
						got, err := src.handle().Compute(ctx, opts)
						sameOutcome(t, what+" Compute "+src.name, got, err, want, wantErr)
						matchesNaive(t, what+" Compute "+src.name, got, err, naiveAll[i])
						got, err = src.handle().ComputeConstrained(ctx, box, opts)
						sameOutcome(t, what+" ComputeConstrained "+src.name, got, err, wantC, wantCErr)
						matchesNaive(t, what+" ComputeConstrained "+src.name, got, err, naiveBox[i])
						got, err = src.handle().ComputeSubspace(ctx, dims, subOpts)
						sameOutcome(t, what+" ComputeSubspace "+src.name, got, err, wantS, wantSErr)
						matchesNaive(t, what+" ComputeSubspace "+src.name, got, err, naiveSub[i])
					}
				}
			}
		}
	}

	t.Run("one plan slot", func(t *testing.T) {
		rows := mustGenerate(t, "anticorrelated", 500, 3, 9)
		h := svc.Dataset(rows)
		jobs := func(opts Options) int64 {
			before := svc.Stats().Admitted
			want, wantErr := Compute(rows, opts)
			got, err := h.Compute(ctx, opts)
			sameOutcome(t, fmt.Sprintf("%+v", opts), got, err, want, wantErr)
			return svc.Stats().Admitted - before
		}
		// A plan whose job failed is not kept: the next query prepares anew.
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := h.Compute(canceled, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("query under a canceled context: %v", err)
		}
		a, b := Options{}, Options{Maximize: mixed}
		for i, step := range []struct {
			opts Options
			jobs int64 // 2: bitstring job + skyline job; 1: served from the kept plan
		}{
			{a, 2}, {a, 1}, {Options{Algorithm: GPSRS, Kernel: "sfs", Reducers: 3}, 1},
			{b, 2}, {b, 1}, {a, 2}, {b, 2},
			{Options{PPD: 5}, 2}, {Options{PPD: 5, Algorithm: Hybrid}, 1},
			{Options{PPD: 5, Mappers: 3}, 2}, {Options{Maximize: []bool{false, false, false}}, 2}, {a, 1},
		} {
			if n := jobs(step.opts); n != step.jobs {
				t.Errorf("step %d (%+v): %d jobs admitted, want %d", i, step.opts, n, step.jobs)
			}
		}
		if _, err := h.Compute(ctx, Options{Maximize: []bool{false, false}}); err == nil ||
			!strings.Contains(err.Error(), "Maximize has 2 entries for 3-dimensional data") {
			t.Errorf("short all-false Maximize matched the identity plan: %v", err)
		}
	})

	t.Run("malformed rows", func(t *testing.T) {
		for name, rows := range map[string][][]float64{
			"ragged": {{1, 2, 3}, {4, 5, 6}, {7, 8}, {1, 1, 1}},
			"nan":    {{1, 2, 3}, {4, math.NaN(), 6}, {0, 0, 0}},
			"inf":    {{1, 2, 3}, {4, 5, math.Inf(1)}, {math.Inf(-1), 0, 0}},
		} {
			h := svc.Dataset(rows)
			for call := 0; call < 2; call++ {
				for _, opts := range []Options{{}, {Maximize: mixed}, {Algorithm: MRBNL}} {
					what := fmt.Sprintf("%s call %d %+v", name, call, opts)
					want, wantErr := Compute(rows, opts)
					if wantErr == nil {
						t.Fatalf("%s: package-level Compute accepted the rows", what)
					}
					wantC, wantCErr := ComputeConstrained(rows, box, opts)
					for _, src := range querySources(svc, h, rows) {
						got, err := src.handle().Compute(ctx, opts)
						sameOutcome(t, what+" Compute "+src.name, got, err, want, wantErr)
						got, err = src.handle().ComputeConstrained(ctx, box, opts)
						sameOutcome(t, what+" ComputeConstrained "+src.name, got, err, wantC, wantCErr)
					}
				}
				// A subspace that avoids the bad column answers, as it
				// always has; one that includes it fails the same way.
				for _, dims := range [][]int{{0}, {0, 1}, {2, 1}} {
					want, wantErr := ComputeSubspace(rows, dims, Options{})
					for _, src := range querySources(svc, h, rows) {
						got, err := src.handle().ComputeSubspace(ctx, dims, Options{})
						sameOutcome(t, fmt.Sprintf("%s call %d ComputeSubspace %v %s", name, call, dims, src.name), got, err, want, wantErr)
					}
				}
			}
		}
	})

	t.Run("no rows", func(t *testing.T) {
		h := svc.Dataset(nil)
		if h.Len() != 0 {
			t.Errorf("Len = %d", h.Len())
		}
		for _, opts := range []Options{{}, {Algorithm: MRAngle}, {Algorithm: "nope"}, {Kernel: "quantum"}} {
			want, wantErr := Compute(nil, opts)
			wantC, wantCErr := ComputeConstrained(nil, box, opts)
			wantS, wantSErr := ComputeSubspace(nil, dims, opts)
			for _, src := range querySources(svc, h, nil) {
				what := fmt.Sprintf("empty %+v %s", opts, src.name)
				got, err := src.handle().Compute(ctx, opts)
				sameOutcome(t, what+" Compute", got, err, want, wantErr)
				got, err = src.handle().ComputeConstrained(ctx, box, opts)
				sameOutcome(t, what+" ComputeConstrained", got, err, wantC, wantCErr)
				got, err = src.handle().ComputeSubspace(ctx, dims, opts)
				sameOutcome(t, what+" ComputeSubspace", got, err, wantS, wantSErr)
			}
		}
	})
}

// TestDatasetHandleConcurrentFirstUse: eight goroutines send a handle its
// first query at once; one of them prepares the plan and all eight answer
// from it — nine jobs admitted, not sixteen.
func TestDatasetHandleConcurrentFirstUse(t *testing.T) {
	svc := mustService(t, ServiceConfig{})
	rows := mustGenerate(t, "independent", 3000, 4, 21)
	want, err := Compute(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Dataset(rows)
	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := h.Compute(context.Background(), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Skyline, want.Skyline) {
				t.Errorf("concurrent first use: %d rows, want %d", len(got.Skyline), len(want.Skyline))
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := svc.Stats().Admitted; n != clients+1 {
		t.Errorf("%d jobs admitted for %d first queries, want %d (one bitstring job)", n, clients, clients+1)
	}
}

// TestServiceRetainsNoSpans: a Service's memory must not grow with the
// queries it has served. After 200 mixed queries its tracer holds no spans,
// while the registry /v1/stats serves still has the engine's and the
// algorithms' series.
func TestServiceRetainsNoSpans(t *testing.T) {
	ctx := context.Background()
	svc := mustService(t, ServiceConfig{Nodes: 2})
	rows := mustGenerate(t, "anticorrelated", 300, 3, 4)
	h := svc.Dataset(rows)
	box := []Range{{Min: 0.2, Max: 0.9}, Unbounded(), Unbounded()}
	for i := 0; i < 50; i++ {
		for _, query := range []func() (*Result, error){
			func() (*Result, error) { return h.Compute(ctx, Options{}) },
			func() (*Result, error) { return h.ComputeConstrained(ctx, box, Options{Algorithm: MRBNL}) },
			func() (*Result, error) { return h.ComputeSubspace(ctx, []int{0, 2}, Options{Algorithm: Hybrid}) },
			func() (*Result, error) { return svc.Compute(ctx, rows[:100], Options{Algorithm: GPSRS}) },
		} {
			if _, err := query(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(svc.trace.Spans()); n != 0 {
		t.Errorf("service tracer retains %d spans after 200 queries, want 0", n)
	}
	raw, err := svc.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters, Histograms []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range append(snap.Counters, snap.Histograms...) {
		listed[m.Name] = true
	}
	for _, name := range []string{"mr.queue.admitted", window.MetricDominanceTests, window.MetricInsertNs, "algo.merge.ns"} {
		if !listed[name] {
			t.Errorf("%s missing from the metrics registry: %s", name, raw)
		}
	}
}

// TestTaskPublishesKernelMetrics: whatever the algorithm and the in-task
// kernel, the registry's dominance-test counter advances by exactly the
// query's Stats.DominanceTests — tasks publish from the Count they thread
// through window operations and batch kernels alike.
func TestTaskPublishesKernelMetrics(t *testing.T) {
	svc := mustService(t, ServiceConfig{Nodes: 4})
	rows := mustGenerate(t, "anticorrelated", 1500, 3, 8)
	var cases []Options
	for _, algo := range []Algorithm{GPSRS, GPMRS, Hybrid} {
		for _, kernel := range []string{"bnl", "sfs"} {
			cases = append(cases, Options{Algorithm: algo, Kernel: kernel})
		}
	}
	for _, algo := range []Algorithm{MRBNL, MRAngle} {
		cases = append(cases, Options{Algorithm: algo})
	}
	reg := svc.trace.Metrics()
	for _, opts := range cases {
		before := reg.Counter(window.MetricDominanceTests)
		res, err := svc.Compute(context.Background(), rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DominanceTests == 0 {
			t.Fatalf("%+v: no dominance tests counted", opts)
		}
		if got := reg.Counter(window.MetricDominanceTests) - before; got != res.Stats.DominanceTests {
			t.Errorf("%s kernel %q: %s advanced by %d, Stats.DominanceTests = %d",
				opts.Algorithm, opts.Kernel, window.MetricDominanceTests, got, res.Stats.DominanceTests)
		}
	}
}

// TestFilterConstrainedErrorPrecedence: the one-pass scan keeps the
// two-pass contract. A malformed row is an error wherever it lies relative
// to the box, the first malformed row is the one reported, a constraint
// count that does not fit the data is reported before any row, and the
// result is sized by what was kept.
func TestFilterConstrainedErrorPrecedence(t *testing.T) {
	narrow := []Range{{Min: 0, Max: 1}, {Min: 0, Max: 1}}
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		rows    [][]float64
		box     []Range
		wantErr string
		want    [][]float64
	}{
		{"all inside", [][]float64{{0, 1}, {1, 0}}, narrow, "", [][]float64{{0, 1}, {1, 0}}},
		{"some outside", [][]float64{{0, 1}, {5, 0}, {1, 0}, {0, -1}}, narrow, "", [][]float64{{0, 1}, {1, 0}}},
		{"none inside", [][]float64{{5, 5}, {7, 7}}, narrow, "", nil},
		{"nan outside the box", [][]float64{{0, 1}, {9, nan}}, narrow,
			"mrskyline: tuple: non-finite value in tuple at index 1: (9, NaN)", nil},
		{"inf after rows outside the box", [][]float64{{9, 9}, {8, 8}, {math.Inf(1), 0}}, narrow,
			"mrskyline: tuple: non-finite value in tuple at index 2: (+Inf, 0)", nil},
		{"ragged outside the box", [][]float64{{0, 1}, {9, 9, 9}}, narrow,
			"mrskyline: tuple: dimensionality mismatch at index 1: got 3, want 2", nil},
		{"short row", [][]float64{{0, 1}, {0}}, narrow,
			"mrskyline: tuple: dimensionality mismatch at index 1: got 1, want 2", nil},
		{"first bad row wins", [][]float64{{0, 1}, {9, 9}, {nan, 0}, {1}, {nan, nan}}, narrow,
			"mrskyline: tuple: non-finite value in tuple at index 2: (NaN, 0)", nil},
		{"constraint count before rows", [][]float64{{nan, 1}, {1}}, narrow[:1],
			"mrskyline: 1 constraints for 2-dimensional data", nil},
		{"no data", nil, narrow, "", nil},
	} {
		got, err := filterConstrained(tc.rows, tc.box, false)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}

	rows := mustGenerate(t, "independent", 20000, 2, 3)
	kept, err := filterConstrained(rows, []Range{{Min: 0.4, Max: 0.5}, {Min: 0.4, Max: 0.5}}, false)
	if err != nil || len(kept) == 0 {
		t.Fatalf("kept %d rows, err %v", len(kept), err)
	}
	if cap(kept) > 4*len(kept) {
		t.Errorf("kept %d of %d rows in a buffer of %d", len(kept), len(rows), cap(kept))
	}
	trusted, err := filterConstrained(rows, []Range{{Min: 0.4, Max: 0.5}, {Min: 0.4, Max: 0.5}}, true)
	if err != nil || !reflect.DeepEqual(trusted, kept) {
		t.Errorf("validated scan kept %d rows (err %v), checking scan %d", len(trusted), err, len(kept))
	}
}

// TestProjectSubspaceSlab: projected rows are windows of one slab, clipped
// so that growing one cannot reach the next, and the projection allocates
// the slab and the row index only.
func TestProjectSubspaceSlab(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	got, err := projectSubspace(rows, []int{2, 0})
	if err != nil || !reflect.DeepEqual(got, [][]float64{{3, 1}, {6, 4}, {9, 7}}) {
		t.Fatalf("projection = %v, %v", got, err)
	}
	if cap(got[0]) != 2 {
		t.Errorf("projected row has capacity %d, want 2", cap(got[0]))
	}
	_ = append(got[0], 99)
	if got[1][0] != 6 {
		t.Errorf("appending to row 0 overwrote row 1: %v", got[1])
	}
	big := mustGenerate(t, "independent", 5000, 4, 1)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := projectSubspace(big, []int{0, 3}); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("projecting 5000 rows allocates %v times, want 2", n)
	}
	if _, err := projectSubspace(rows, []int{0, 3}); err == nil || err.Error() != "mrskyline: subspace dimension 3 out of range [0,3)" {
		t.Errorf("out-of-range dimension: %v", err)
	}
	if _, err := projectSubspace([][]float64{{1, 2}, {3}}, []int{0}); err == nil || err.Error() != "mrskyline: ragged row of 1 columns, want 2" {
		t.Errorf("ragged row: %v", err)
	}
}
