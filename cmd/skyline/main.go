// Command skyline computes the skyline of a CSV dataset with one of the
// MapReduce algorithms.
//
// Usage:
//
//	skyline -in hotels.csv -out sky.csv
//	skygen -dist anti -card 100000 -dim 4 | skyline -algo MR-GPMRS -stats
//	skyline -in offers.csv -maximize 1,2   # maximize columns 1 and 2
//
// Input is comma-separated, one tuple per line; '#' comments and blank
// lines are skipped. The skyline is written in the same format. The CSV is
// parsed and validated once, then every job reads the rows as in-memory
// binary splits, one per map task.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	mrskyline "mrskyline"
	"mrskyline/internal/cliflag"
)

func main() {
	algoNames := make([]string, 0, len(mrskyline.Algorithms()))
	for _, a := range mrskyline.Algorithms() {
		algoNames = append(algoNames, string(a))
	}
	var (
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

	if err := run(*in, *out, *algo, *nodes, *slots, *mappers, *reducers, *ppd, *maximize, *stats, *spillbudget, *spilldir); err != nil {
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
