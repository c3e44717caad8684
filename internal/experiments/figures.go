package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mrskyline/internal/costmodel"
	"mrskyline/internal/datagen"
)

// FigureResult is the output of one figure runner: one or more tables.
type FigureResult struct {
	Name   string
	Tables []*Table
}

// FigureNames lists the experiment identifiers RunFigure accepts, in paper
// order followed by the ablations.
func FigureNames() []string {
	return []string{
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"ablation-merge", "ablation-prune", "ablation-ppd",
		"ablation-hybrid", "extension-scaleout",
	}
}

// RunFigure regenerates one figure or ablation by name.
func RunFigure(name string, s Setup) (*FigureResult, error) {
	s = s.withDefaults()
	switch name {
	case "fig7":
		return dimensionalityFigure(s, "Figure 7", datagen.Independent)
	case "fig8":
		return dimensionalityFigure(s, "Figure 8", datagen.AntiCorrelated)
	case "fig9":
		return cardinalityFigure(s)
	case "fig10":
		return reducerFigure(s)
	case "fig11":
		return costValidationFigure(s)
	case "ablation-merge":
		return mergeAblation(s)
	case "ablation-prune":
		return pruningAblation(s)
	case "ablation-ppd":
		return ppdAblation(s)
	case "ablation-hybrid":
		return hybridAblation(s)
	case "extension-scaleout":
		return scaleoutExtension(s)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (want one of %v)", name, FigureNames())
	}
}

// runtimeCell measures one algorithm on one dataset and renders the
// runtime-in-seconds cell, honouring the paper's DNF exclusions.
func runtimeCell(s Setup, algo string, dist datagen.Distribution, data tupleList, opts measureOpts) (string, error) {
	if s.shouldSkip(algo, dist, len(data), data.Dim()) {
		return "DNF", nil
	}
	m, err := runAlgorithm(algo, s, data, opts)
	if err != nil {
		return "", err
	}
	return fmtDuration(m.Runtime), nil
}

// dimensionalityFigure reproduces Figures 7 (independent) and 8
// (anti-correlated): runtime vs dimensionality 2..10 at the paper's two
// cardinalities, for the four compared algorithms. Panels (a)+(b) share a
// cardinality, as do (c)+(d); each pair becomes one table here.
func dimensionalityFigure(s Setup, title string, dist datagen.Distribution) (*FigureResult, error) {
	res := &FigureResult{Name: title}
	panels := []struct {
		label     string
		paperCard int
	}{
		{"(a,b)", 100_000},
		{"(c,d)", 2_000_000},
	}
	algos := PaperAlgorithms()
	for _, panel := range panels {
		card := s.card(panel.paperCard)
		tab := &Table{
			Title:   fmt.Sprintf("%s%s: runtime [s] vs dimensionality, %v, card=%d", title, panel.label, dist, card),
			Columns: append([]string{"dim"}, algos...),
		}
		for d := 2; d <= 10; d++ {
			data, _ := s.dataset(dist, panel.paperCard, d)
			row := []string{strconv.Itoa(d)}
			for _, algo := range algos {
				cell, err := runtimeCell(s, algo, dist, data, defaultMeasureOpts())
				if err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
			tab.Add(row...)
		}
		res.Tables = append(res.Tables, tab)
	}
	return res, nil
}

// cardinalityFigure reproduces Figure 9: runtime vs cardinality for d ∈
// {3, 8} on both distributions.
func cardinalityFigure(s Setup) (*FigureResult, error) {
	res := &FigureResult{Name: "Figure 9"}
	paperCards := []int{100_000, 500_000, 1_000_000, 2_000_000, 3_000_000}
	algos := PaperAlgorithms()
	panels := []struct {
		label string
		dist  datagen.Distribution
		dim   int
	}{
		{"(a)", datagen.Independent, 3},
		{"(b)", datagen.Independent, 8},
		{"(c)", datagen.AntiCorrelated, 3},
		{"(d)", datagen.AntiCorrelated, 8},
	}
	for _, panel := range panels {
		tab := &Table{
			Title:   fmt.Sprintf("Figure 9%s: runtime [s] vs cardinality, %d-d %v", panel.label, panel.dim, panel.dist),
			Columns: append([]string{"card"}, algos...),
		}
		// Distinct scaled cardinalities only (scaling can collapse points).
		seen := map[int]bool{}
		var cards []int
		for _, pc := range paperCards {
			c := s.card(pc)
			if !seen[c] {
				seen[c] = true
				cards = append(cards, c)
			}
		}
		sort.Ints(cards)
		for _, card := range cards {
			data := datagen.Generate(panel.dist, card, panel.dim,
				s.Seed+int64(panel.dist)*1_000_003+int64(card)*31+int64(panel.dim))
			row := []string{strconv.Itoa(card)}
			for _, algo := range algos {
				cell, err := runtimeCell(s, algo, panel.dist, data, defaultMeasureOpts())
				if err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
			tab.Add(row...)
		}
		res.Tables = append(res.Tables, tab)
	}
	return res, nil
}

// reducerFigure reproduces Figure 10: MR-GPMRS runtime vs the number of
// reducers (1 = MR-GPSRS, as in the paper) on 8-dimensional data of
// cardinality 2×10⁶, both distributions.
func reducerFigure(s Setup) (*FigureResult, error) {
	const paperCard, dim = 2_000_000, 8
	// The paper's Figure 10 includes the single-reducer point even on
	// anti-correlated data (it is the baseline of the comparison), so the
	// DNF heuristic does not apply here.
	s.NoSkip = true
	reducers := []int{1, 5, 9, 13, 17}
	tab := &Table{
		Title:   fmt.Sprintf("Figure 10: runtime [s] vs reducers, %d-d, card=%d", dim, s.card(paperCard)),
		Columns: []string{"reducers", "independent", "anticorrelated"},
	}
	for _, r := range reducers {
		row := []string{strconv.Itoa(r)}
		for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
			data, _ := s.dataset(dist, paperCard, dim)
			algo := AlgoGPMRS
			if r == 1 {
				algo = AlgoGPSRS
			}
			opts := defaultMeasureOpts()
			opts.reducers = r
			cell, err := runtimeCell(s, algo, dist, data, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		tab.Add(row...)
	}
	return &FigureResult{Name: "Figure 10", Tables: []*Table{tab}}, nil
}

// costValidationFigure reproduces Figure 11: the busiest mapper's and
// reducer's measured partition-wise comparison counts in MR-GPMRS runs of
// cardinality 10⁶ across dimensionalities, against the Section 6 estimates
// κ_mapper and κ_reducer for the same grid.
func costValidationFigure(s Setup) (*FigureResult, error) {
	const paperCard = 1_000_000
	res := &FigureResult{Name: "Figure 11"}
	mapTab := &Table{
		Title: fmt.Sprintf("Figure 11(a): partition-wise comparisons per mapper, card=%d", s.card(paperCard)),
		Columns: []string{"dim", "ppd",
			"measured(indep)", "estimate(indep)", "measured(anti)", "estimate(anti)"},
	}
	redTab := &Table{
		Title: fmt.Sprintf("Figure 11(b): partition-wise comparisons per reducer, card=%d", s.card(paperCard)),
		Columns: []string{"dim", "ppd",
			"measured(indep)", "estimate(indep)", "measured(anti)", "estimate(anti)"},
	}
	for d := 2; d <= 10; d++ {
		mapRow := []string{strconv.Itoa(d), ""}
		redRow := []string{strconv.Itoa(d), ""}
		var ppds []string
		for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
			data, _ := s.dataset(dist, paperCard, d)
			m, err := runAlgorithm(AlgoGPMRS, s, data, defaultMeasureOpts())
			if err != nil {
				return nil, err
			}
			ppds = append(ppds, strconv.Itoa(m.PPD))
			mapRow = append(mapRow,
				strconv.FormatInt(m.MapperPartCmp, 10),
				strconv.FormatInt(costmodel.KappaMapper(m.PPD, d), 10))
			redRow = append(redRow,
				strconv.FormatInt(m.ReducerPartCmp, 10),
				strconv.FormatInt(costmodel.KappaReducer(m.PPD, d), 10))
		}
		// The heuristic may pick different grids per distribution; show both.
		mapRow[1] = strings.Join(ppds, "/")
		redRow[1] = strings.Join(ppds, "/")
		mapTab.Add(mapRow...)
		redTab.Add(redRow...)
	}
	res.Tables = append(res.Tables, mapTab, redTab)
	return res, nil
}
