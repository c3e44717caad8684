package experiments

import (
	"fmt"
	"strconv"

	"mrskyline/internal/datagen"
	"mrskyline/internal/grid"
)

// The ablation experiments isolate the design decisions DESIGN.md calls
// out. Each reuses the figure infrastructure: fresh engine per point,
// deterministic datasets, runtime in seconds.

// mergeAblation contrasts the two group-merging options of Section 5.4.1
// (the paper reports computation-cost merging won its preliminary tests).
func mergeAblation(s Setup) (*FigureResult, error) {
	const paperCard, dim = 1_000_000, 6
	tab := &Table{
		Title:   fmt.Sprintf("Ablation: MR-GPMRS group merging strategy, %d-d, card=%d", dim, s.card(paperCard)),
		Columns: []string{"distribution", "computation[s]", "communication[s]"},
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
		data, _ := s.dataset(dist, paperCard, dim)
		row := []string{dist.String()}
		for _, strat := range []grid.MergeStrategy{grid.MergeByComputation, grid.MergeByCommunication} {
			opts := defaultMeasureOpts()
			opts.merge = strat
			m, err := runAlgorithm(AlgoGPMRS, s, data, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDuration(m.Runtime))
		}
		tab.Add(row...)
	}
	return &FigureResult{Name: "Ablation: merge strategy", Tables: []*Table{tab}}, nil
}

// pruningAblation switches the Equation 2 bitstring pruning off to measure
// what the "early and much more aggressive pruning of unpromising data
// partitions" buys.
func pruningAblation(s Setup) (*FigureResult, error) {
	const paperCard = 1_000_000
	tab := &Table{
		Title:   fmt.Sprintf("Ablation: bitstring pruning (Equation 2), MR-GPSRS, card=%d", s.card(paperCard)),
		Columns: []string{"distribution", "dim", "pruned[s]", "unpruned[s]", "prunedShuffleB", "unprunedShuffleB"},
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
		for _, dim := range []int{2, 4, 6} {
			data, _ := s.dataset(dist, paperCard, dim)
			on := defaultMeasureOpts()
			off := defaultMeasureOpts()
			off.disablePruning = true
			mOn, err := runAlgorithm(AlgoGPSRS, s, data, on)
			if err != nil {
				return nil, err
			}
			mOff, err := runAlgorithm(AlgoGPSRS, s, data, off)
			if err != nil {
				return nil, err
			}
			tab.Add(dist.String(), strconv.Itoa(dim),
				fmtDuration(mOn.Runtime), fmtDuration(mOff.Runtime),
				strconv.FormatInt(mOn.ShuffleBytes, 10), strconv.FormatInt(mOff.ShuffleBytes, 10))
		}
	}
	return &FigureResult{Name: "Ablation: bitstring pruning", Tables: []*Table{tab}}, nil
}

// ppdAblation sweeps fixed PPD values against the Section 3.3 heuristic,
// the trade-off Section 3.3 motivates (too-small TPP wastes partition
// checks, too-large TPP prunes nothing).
func ppdAblation(s Setup) (*FigureResult, error) {
	const paperCard, dim = 1_000_000, 4
	tab := &Table{
		Title:   fmt.Sprintf("Ablation: PPD choice, MR-GPMRS, %d-d, card=%d", dim, s.card(paperCard)),
		Columns: []string{"distribution", "ppd", "runtime[s]", "skyline"},
	}
	for _, dist := range []datagen.Distribution{datagen.Independent, datagen.AntiCorrelated} {
		data, _ := s.dataset(dist, paperCard, dim)
		for _, ppd := range []int{2, 3, 4, 6, 8, 0} {
			opts := defaultMeasureOpts()
			opts.ppdOverride = ppd
			m, err := runAlgorithm(AlgoGPMRS, s, data, opts)
			if err != nil {
				return nil, err
			}
			label := strconv.Itoa(ppd)
			if ppd == 0 {
				label = fmt.Sprintf("auto(%d)", m.PPD)
			}
			tab.Add(dist.String(), label, fmtDuration(m.Runtime), strconv.Itoa(m.SkylineSize))
		}
	}
	return &FigureResult{Name: "Ablation: PPD", Tables: []*Table{tab}}, nil
}

// hybridAblation compares the future-work Hybrid against always-GPSRS and
// always-GPMRS across the regimes where the paper says each one wins.
func hybridAblation(s Setup) (*FigureResult, error) {
	tab := &Table{
		Title:   "Ablation: Hybrid vs fixed algorithm choice",
		Columns: []string{"distribution", "dim", "card", "GPSRS[s]", "GPMRS[s]", "Hybrid[s]", "hybridChose"},
	}
	points := []struct {
		dist      datagen.Distribution
		dim       int
		paperCard int
	}{
		{datagen.Independent, 3, 1_000_000},    // small skyline: GPSRS regime
		{datagen.Independent, 8, 1_000_000},    // moderate skyline
		{datagen.AntiCorrelated, 3, 1_000_000}, // moderate skyline
		{datagen.AntiCorrelated, 8, 1_000_000}, // huge skyline: GPMRS regime
	}
	for _, pt := range points {
		data, card := s.dataset(pt.dist, pt.paperCard, pt.dim)
		row := []string{pt.dist.String(), strconv.Itoa(pt.dim), strconv.Itoa(card)}
		var chose string
		for _, algo := range []string{AlgoGPSRS, AlgoGPMRS, AlgoHybrid} {
			m, err := runAlgorithm(algo, s, data, defaultMeasureOpts())
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDuration(m.Runtime))
			if algo == AlgoHybrid {
				chose = m.Algo
			}
		}
		tab.Add(append(row, chose)...)
	}
	return &FigureResult{Name: "Ablation: hybrid", Tables: []*Table{tab}}, nil
}

// scaleoutExtension measures MR-GPMRS's simulated runtime as the cluster
// grows at a fixed workload — the scale-out property MapReduce exists for.
// Not a paper figure; an extension experiment over the simulated cluster.
func scaleoutExtension(s Setup) (*FigureResult, error) {
	const paperCard, dim = 1_000_000, 8
	tab := &Table{
		Title:   fmt.Sprintf("Extension: MR-GPMRS runtime vs cluster size, %d-d anticorrelated, card=%d", dim, s.card(paperCard)),
		Columns: []string{"nodes", "runtime[s]", "speedup"},
	}
	data, _ := s.dataset(datagen.AntiCorrelated, paperCard, dim)
	var base float64
	for _, nodes := range []int{1, 2, 4, 8, 13} {
		cfg := s
		cfg.Nodes = nodes
		cfg.Reducers = nodes
		m, err := runAlgorithm(AlgoGPMRS, cfg, data, defaultMeasureOpts())
		if err != nil {
			return nil, err
		}
		secs := m.Runtime.Seconds()
		if nodes == 1 {
			base = secs
		}
		tab.Add(strconv.Itoa(nodes), fmtDuration(m.Runtime), fmt.Sprintf("%.2fx", base/secs))
	}
	return &FigureResult{Name: "Extension: scale-out", Tables: []*Table{tab}}, nil
}
