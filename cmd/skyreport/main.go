// Command skyreport regenerates every figure of the paper's evaluation,
// runs the shape checks comparing measured behaviour against the paper's
// findings, and writes a Markdown report (the source of EXPERIMENTS.md).
//
// Usage:
//
//	skyreport -o EXPERIMENTS.md -scale 0.05
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"mrskyline/internal/cliflag"
	"mrskyline/internal/experiments"
	"mrskyline/internal/obs"
)

func main() {
	var (
		out      = flag.String("o", "", "output file (default stdout)")
		scale    = flag.Float64("scale", experiments.DefaultScale, "cardinality scale factor relative to the paper")
		nodes    = flag.Int("nodes", 13, "simulated cluster nodes")
		paper    = flag.Bool("paper", false, "use the paper's exact heterogeneous 13-machine cluster")
		slots    = flag.Int("slots", 2, "task slots per node")
		reducers = flag.Int("reducers", 0, "MR-GPMRS reduce tasks (0 = one per node)")
		seed     = flag.Int64("seed", 1, "data generation seed")
		nosim    = flag.Bool("nosim", false, "report host wall-clock instead of simulated cluster time")
		// Publication runs default to strictly serial task measurement:
		// per-task durations must reflect each task's work alone, free of
		// even scheduler noise from sibling tasks.
		measurePar  = flag.Int("measurepar", 1, "concurrently measured tasks (1 = serial isolation for publishable figures, 0 = min(GOMAXPROCS, slots))")
		faultrate   = flag.Float64("faultrate", 0, "deterministic fault-injection rate for crashes/stragglers/corruption (0 = fault-free)")
		faultseed   = flag.Int64("faultseed", 0, "fault plan seed (0 = data seed; only with -faultrate > 0)")
		spillbudget = flag.Int64("spillbudget", 0, "external-memory shuffle budget in bytes (0 = all in RAM)")
		spilldir    = flag.String("spilldir", "", "directory for spill run files (default: the system temp dir; only with -spillbudget > 0)")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto / chrome://tracing)")
	)
	flag.Parse()

	for _, err := range []error{
		cliflag.ValidateScale(*scale),
		cliflag.ValidateFaultConfig(*faultrate, cliflag.Set("faultseed")),
		cliflag.ValidateSpillConfig(*spillbudget, *spilldir, cliflag.Set("spillbudget"), cliflag.Set("spilldir")),
	} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyreport: %v\n", err)
			os.Exit(1)
		}
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New()
		defer func() {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = obs.WriteChromeTrace(f, tracer)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "skyreport: -trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "skyreport: wrote trace %s (%d spans)\n", *traceOut, len(tracer.Spans()))
		}()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyreport: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}

	setup := experiments.Setup{
		PaperCluster:       *paper,
		Nodes:              *nodes,
		SlotsPerNode:       *slots,
		Reducers:           *reducers,
		Seed:               *seed,
		Scale:              *scale,
		NoSim:              *nosim,
		MeasureParallelism: *measurePar,
		FaultRate:          *faultrate,
		FaultSeed:          *faultseed,
		SpillBudget:        *spillbudget,
		SpillDir:           *spilldir,
		Trace:              tracer,
	}
	if err := experiments.Report(setup, w); err != nil {
		fmt.Fprintf(os.Stderr, "skyreport: %v\n", err)
		os.Exit(1)
	}
}
