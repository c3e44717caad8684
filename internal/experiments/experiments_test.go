package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mrskyline/internal/datagen"
	"mrskyline/internal/obs"
)

// tinySetup keeps every figure sweep at 1000-tuple datasets on a small
// cluster so the whole suite runs in seconds.
func tinySetup() Setup {
	return Setup{Nodes: 4, SlotsPerNode: 2, Seed: 7, Scale: 0.0001}
}

func TestRunAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range FigureNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := RunFigure(name, tinySetup())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range res.Tables {
				if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
					t.Errorf("table %q is empty", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q: ragged row %v", tab.Title, row)
					}
				}
				// Render both formats without panicking.
				if tab.String() == "" || tab.CSV() == "" {
					t.Errorf("table %q renders empty", tab.Title)
				}
			}
		})
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("fig99", tinySetup()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureShapes(t *testing.T) {
	res, err := RunFigure("fig10", tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Rows) != 5 {
		t.Errorf("fig10 rows = %d, want 5 reducer counts", len(tab.Rows))
	}
	if tab.Cell(0, "reducers") != "1" || tab.Cell(4, "reducers") != "17" {
		t.Errorf("fig10 reducer sweep wrong: %v", tab.Rows)
	}
	for i := range tab.Rows {
		for _, col := range []string{"independent", "anticorrelated"} {
			v := tab.Cell(i, col)
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("fig10 %s row %d = %q, not a runtime", col, i, v)
			}
		}
	}
}

// TestFaultInjectedFigureDeterministic: two identical fault-injected runs
// — same data and fault seeds, a fresh tracer each — must produce the same
// tables and the same metrics snapshot. Under a FaultPlan every job runs
// on the engine's virtual clock, so runtimes, retries, speculation and the
// per-phase histograms are functions of the seeds alone and must not
// drift with host timing.
func TestFaultInjectedFigureDeterministic(t *testing.T) {
	run := func() (*FigureResult, obs.MetricsSnapshot) {
		t.Helper()
		s := Setup{Seed: 1, Scale: 0.0001, Nodes: 4, SlotsPerNode: 2,
			FaultRate: 0.1, FaultSeed: 5, Trace: obs.New()}
		res, err := RunFigure("fig10", s)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Trace.Metrics().Snapshot()
	}
	resA, snapA := run()
	resB, snapB := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("two identical runs produced different tables:\n--- run 1\n%s\n--- run 2\n%s",
			resA.Tables[0], resB.Tables[0])
	}
	if len(snapA.Histograms) == 0 {
		t.Fatal("metrics snapshot has no per-phase histograms")
	}
	if !reflect.DeepEqual(snapA, snapB) {
		t.Errorf("two identical runs produced different metrics:\n--- run 1\n%v\n--- run 2\n%v", snapA, snapB)
	}
}

func TestCostValidationEstimateIsUpperBound(t *testing.T) {
	// The paper's Section 7.5 finding: "the estimated cost is higher than
	// the real cost in every case". Verified here at test scale for both
	// phases and both distributions. The reducer bound models one surface
	// per reducer, so it needs the paper's cluster shape (13 nodes → 13
	// reducers ≥ d groups apiece); the 4-node tiny setup would stack
	// several surfaces onto one reducer and legitimately exceed κ_reducer.
	res, err := RunFigure("fig11", Setup{Seed: 7, Scale: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range res.Tables {
		for i := range tab.Rows {
			for _, pair := range [][2]string{
				{"measured(indep)", "estimate(indep)"},
				{"measured(anti)", "estimate(anti)"},
			} {
				meas, err1 := strconv.ParseInt(tab.Cell(i, pair[0]), 10, 64)
				est, err2 := strconv.ParseInt(tab.Cell(i, pair[1]), 10, 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s row %d: unparseable cells %v", tab.Title, i, tab.Rows[i])
				}
				if meas > est {
					t.Errorf("%s row %d: measured %d exceeds estimate %d", tab.Title, i, meas, est)
				}
			}
		}
	}
}

func TestShouldSkipMirrorsPaperExclusions(t *testing.T) {
	s := tinySetup().withDefaults()
	// Baselines DNF on high-dimensional anti-correlated data at size.
	if !s.shouldSkip(AlgoBNL, datagen.AntiCorrelated, 40_000, 8) {
		t.Error("MR-BNL not skipped on anti d=8")
	}
	if !s.shouldSkip(AlgoAngle, datagen.AntiCorrelated, 40_000, 10) {
		t.Error("MR-Angle not skipped on anti d=10")
	}
	// GPSRS only at d ≥ 8 and high cardinality.
	if !s.shouldSkip(AlgoGPSRS, datagen.AntiCorrelated, 60_000, 9) {
		t.Error("MR-GPSRS not skipped on big anti d=9")
	}
	if s.shouldSkip(AlgoGPSRS, datagen.AntiCorrelated, 10_000, 9) {
		t.Error("MR-GPSRS skipped on small data")
	}
	// GPMRS never skips; independent data never skips.
	if s.shouldSkip(AlgoGPMRS, datagen.AntiCorrelated, 1_000_000, 10) {
		t.Error("MR-GPMRS skipped")
	}
	if s.shouldSkip(AlgoBNL, datagen.Independent, 1_000_000, 10) {
		t.Error("independent data skipped")
	}
	// NoSkip disables all exclusions.
	s.NoSkip = true
	if s.shouldSkip(AlgoBNL, datagen.AntiCorrelated, 1_000_000, 10) {
		t.Error("NoSkip ignored")
	}
}

func TestSetupDefaults(t *testing.T) {
	s := Setup{}.withDefaults()
	if s.Nodes != 13 || s.SlotsPerNode != 2 || s.Seed != 1 || s.Scale != DefaultScale {
		t.Errorf("defaults = %+v", s)
	}
	// Scaled cardinality floors at 1000 and never exceeds the paper's.
	if got := s.card(100_000); got != 2000 {
		t.Errorf("card(1e5) = %d, want 2000", got)
	}
	if got := s.card(10); got != 10 {
		t.Errorf("card(10) = %d, want 10 (capped at paper value)", got)
	}
	big := Setup{Scale: 1}.withDefaults()
	if got := big.card(2_000_000); got != 2_000_000 {
		t.Errorf("card at scale 1 = %d", got)
	}
}

func TestRunAlgorithmAllNames(t *testing.T) {
	s := tinySetup()
	data := datagen.Generate(datagen.Independent, 500, 3, 3)
	var sizes []int
	for _, name := range AllAlgorithms() {
		m, err := RunAlgorithm(name, s, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Runtime <= 0 || m.SkylineSize == 0 {
			t.Errorf("%s: measurement %+v", name, m)
		}
		sizes = append(sizes, m.SkylineSize)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Fatalf("algorithms disagree on skyline size: %v (%v)", sizes, AllAlgorithms())
		}
	}
	if _, err := RunAlgorithm("MR-Nope", s, data); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTableHelpers(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.Add("1", "2")
	if got := tab.Cell(0, "b"); got != "2" {
		t.Errorf("Cell = %q", got)
	}
	if got := tab.Cell(0, "zzz"); got != "" {
		t.Errorf("missing column Cell = %q", got)
	}
	if got := tab.Cell(5, "a"); got != "" {
		t.Errorf("out-of-range Cell = %q", got)
	}
	if !strings.Contains(tab.String(), "T\n") || !strings.HasPrefix(tab.CSV(), "a,b\n") {
		t.Error("rendering wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged Add accepted")
		}
	}()
	tab.Add("only-one")
}

func TestReducerFigureIncludesSingleReducerPoint(t *testing.T) {
	// Figure 10's r=1 row is the baseline of the comparison; the DNF
	// heuristic must not blank it even on anti-correlated data.
	res, err := RunFigure("fig10", tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	for _, col := range []string{"independent", "anticorrelated"} {
		if v := tab.Cell(0, col); v == "DNF" || v == "" {
			t.Errorf("r=1 %s cell = %q", col, v)
		}
	}
}
