// Command skyline computes the skyline of a CSV dataset with one of the
// MapReduce algorithms.
//
// Usage:
//
//	skyline -in hotels.csv -out sky.csv
//	skygen -dist anti -card 100000 -dim 4 | skyline -algo MR-GPMRS -stats
//	skyline -in offers.csv -maximize 1,2   # maximize columns 1 and 2
//	skyline -in big.csv -via-dfs           # stream from the simulated DFS
//
// Input is comma-separated, one tuple per line; '#' comments and blank
// lines are skipped. The skyline is written in the same format.
//
// With -via-dfs the file is loaded into the simulated distributed file
// system, split into blocks, and the map tasks parse CSV records straight
// from their splits — the exact input path the paper's Hadoop jobs use.
// Only the grid algorithms (MR-GPSRS, MR-GPMRS) support this mode, and
// -maximize does not apply (records are processed as stored).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	mrskyline "mrskyline"
	"mrskyline/internal/cliflag"
	"mrskyline/internal/cluster"
	"mrskyline/internal/core"
	"mrskyline/internal/dfs"
	"mrskyline/internal/mapreduce"
	"mrskyline/internal/spill"
	"mrskyline/internal/tuple"
)

func main() {
	algoNames := make([]string, 0, len(mrskyline.Algorithms()))
	for _, a := range mrskyline.Algorithms() {
		algoNames = append(algoNames, string(a))
	}
	var (
		viaDFS   = flag.Bool("via-dfs", false, "load the input into the simulated DFS and stream map tasks from block splits")
		in       = flag.String("in", "", "input CSV file (default stdin)")
		out      = flag.String("out", "", "output CSV file (default stdout)")
		algo     = flag.String("algo", string(mrskyline.GPMRS), "algorithm: "+strings.Join(algoNames, ", "))
		nodes    = flag.Int("nodes", 8, "simulated cluster nodes")
		slots    = flag.Int("slots", 2, "task slots per node")
		mappers  = flag.Int("mappers", 0, "map tasks (0 = all slots)")
		reducers = flag.Int("reducers", 0, "reduce tasks (0 = one per node)")
		ppd      = flag.Int("ppd", 0, "fixed partitions-per-dimension (0 = auto)")
		maximize = flag.String("maximize", "", "comma-separated 0-based column indexes where larger is better")
		stats    = flag.Bool("stats", false, "print run statistics to stderr")

		spillbudget = flag.Int64("spillbudget", 0, "external-memory shuffle budget in bytes (0 = all in RAM); map outputs beyond the budget spill to sorted run files and merge back under it")
		spilldir    = flag.String("spilldir", "", "directory for spill run files (default: the system temp dir; only with -spillbudget > 0)")
	)
	flag.Parse()

	if err := cliflag.ValidateSpillConfig(*spillbudget, *spilldir, cliflag.Set("spillbudget"), cliflag.Set("spilldir")); err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}

	var err error
	if *viaDFS {
		err = runViaDFS(*in, *out, *algo, *nodes, *slots, *mappers, *reducers, *ppd, *maximize, *stats, *spillbudget, *spilldir)
	} else {
		err = run(*in, *out, *algo, *nodes, *slots, *mappers, *reducers, *ppd, *maximize, *stats, *spillbudget, *spilldir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyline: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out, algo string, nodes, slots, mappers, reducers, ppd int, maximize string, stats bool, spillBudget int64, spillDir string) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	data, err := mrskyline.ReadCSV(r)
	if err != nil {
		return err
	}

	var maxMask []bool
	if maximize != "" {
		if len(data) == 0 {
			return fmt.Errorf("-maximize given but input is empty")
		}
		maxMask = make([]bool, len(data[0]))
		for _, fld := range strings.Split(maximize, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(fld))
			if err != nil || idx < 0 || idx >= len(maxMask) {
				return fmt.Errorf("invalid -maximize column %q for %d-column data", fld, len(maxMask))
			}
			maxMask[idx] = true
		}
	}

	res, err := mrskyline.Compute(data, mrskyline.Options{
		Algorithm:    mrskyline.Algorithm(algo),
		Nodes:        nodes,
		SlotsPerNode: slots,
		Mappers:      mappers,
		Reducers:     reducers,
		PPD:          ppd,
		Maximize:     maxMask,
		SpillBudget:  spillBudget,
		SpillDir:     spillDir,
	})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := mrskyline.WriteCSV(w, res.Skyline); err != nil {
		return err
	}

	if stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "algorithm:        %s\n", s.Algorithm)
		fmt.Fprintf(os.Stderr, "input tuples:     %d\n", len(data))
		fmt.Fprintf(os.Stderr, "skyline tuples:   %d\n", s.SkylineSize)
		fmt.Fprintf(os.Stderr, "runtime:          %v\n", s.Runtime)
		if s.PPD > 0 {
			fmt.Fprintf(os.Stderr, "grid:             %d^%d partitions (PPD %d)\n", s.PPD, len(data[0]), s.PPD)
			fmt.Fprintf(os.Stderr, "non-empty:        %d\n", s.NonEmpty)
			fmt.Fprintf(os.Stderr, "after pruning:    %d\n", s.Surviving)
			if s.Groups > 0 {
				fmt.Fprintf(os.Stderr, "independent grps: %d\n", s.Groups)
			}
		}
		fmt.Fprintf(os.Stderr, "dominance tests:  %d\n", s.DominanceTests)
		fmt.Fprintf(os.Stderr, "shuffle bytes:    %d\n", s.ShuffleBytes)
	}
	return nil
}

// runViaDFS executes the grid algorithms over the simulated distributed
// file system: the input file is written into block-split, replicated DFS
// storage and map tasks parse CSV records from their own splits.
func runViaDFS(in, out, algo string, nodes, slots, mappers, reducers, ppd int, maximize string, stats bool, spillBudget int64, spillDir string) error {
	if maximize != "" {
		return fmt.Errorf("-maximize is not supported with -via-dfs")
	}
	var content []byte
	var err error
	if in == "" {
		content, err = io.ReadAll(os.Stdin)
	} else {
		content, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}

	clus, err := cluster.Uniform(nodes, slots)
	if err != nil {
		return err
	}
	eng := mapreduce.NewEngine(clus)
	if spillBudget > 0 {
		dir := spillDir
		if dir == "" {
			dir = os.TempDir()
		}
		eng.Spill = &spill.Config{Dir: dir, Budget: spillBudget, Stats: &spill.Stats{}}
	}
	fsys, err := dfs.New(dfs.Config{
		BlockSize:   256 * 1024,
		Replication: 3,
		Nodes:       clus.Nodes(),
	})
	if err != nil {
		return err
	}
	const path = "input.csv"
	if err := fsys.WriteFile(path, content); err != nil {
		return err
	}

	// Shape discovery: dimensionality from the first data line, cardinality
	// estimated from the file size and that line's length (only the PPD
	// heuristic consumes the estimate).
	d, approxCard, err := probeCSV(content)
	if err != nil {
		return err
	}

	cfg := core.Config{
		Engine:       eng,
		NumMappers:   mappers,
		NumReducers:  reducers,
		PPD:          ppd,
		DecodeRecord: core.CSVRecordDecoder(d),
	}
	// The grid needs the data's bounding box; one streaming pass suffices.
	lo, hi, err := csvBounds(content, d)
	if err != nil {
		return err
	}
	cfg.Lo, cfg.Hi = lo, hi

	input := mapreduce.DFSLineInput{FS: fsys, Path: path}
	var (
		sky tuple.List
		st  *core.Stats
	)
	switch algo {
	case string(mrskyline.GPSRS):
		sky, st, err = core.GPSRSFromInput(cfg, input, d, approxCard)
	case string(mrskyline.GPMRS):
		sky, st, err = core.GPMRSFromInput(cfg, input, d, approxCard)
	default:
		return fmt.Errorf("-via-dfs supports MR-GPSRS and MR-GPMRS, not %q", algo)
	}
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	rows := make([][]float64, len(sky))
	for i, t := range sky {
		rows[i] = t
	}
	if err := mrskyline.WriteCSV(w, rows); err != nil {
		return err
	}
	if stats {
		fmt.Fprintf(os.Stderr, "algorithm:        %s (via simulated DFS)\n", st.Algorithm)
		fmt.Fprintf(os.Stderr, "skyline tuples:   %d\n", st.SkylineSize)
		fmt.Fprintf(os.Stderr, "runtime:          %v\n", st.Total)
		fmt.Fprintf(os.Stderr, "grid:             PPD %d, %d partitions, %d non-empty, %d surviving\n",
			st.PPD, st.Partitions, st.NonEmpty, st.Surviving)
	}
	return nil
}

// probeCSV returns the dimensionality of the first data line and an
// estimated line count.
func probeCSV(content []byte) (d, approxCard int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(content))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d = strings.Count(line, ",") + 1
		approxCard = len(content) / (len(line) + 1)
		if approxCard < 1 {
			approxCard = 1
		}
		return d, approxCard, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("input contains no data lines")
}

// csvBounds scans the dataset once for its per-dimension bounding box.
func csvBounds(content []byte, d int) (lo, hi []float64, err error) {
	data, err := mrskyline.ReadCSV(bytes.NewReader(content))
	if err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("input contains no data lines")
	}
	lo = append([]float64(nil), data[0]...)
	hi = append([]float64(nil), data[0]...)
	for _, t := range data[1:] {
		for k := range t {
			if t[k] < lo[k] {
				lo[k] = t[k]
			}
			if t[k] > hi[k] {
				hi[k] = t[k]
			}
		}
	}
	for k := 0; k < d; k++ {
		if hi[k] <= lo[k] {
			hi[k] = lo[k] + 1
		}
	}
	return lo, hi, nil
}
