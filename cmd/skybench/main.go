// Command skybench regenerates the paper's evaluation: every figure of
// Section 7 plus the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	skybench -exp fig7                # one experiment
//	skybench -exp fig7,fig10          # several
//	skybench -exp all                 # everything
//	skybench -exp all -scale 1        # the paper's full cardinalities
//	skybench -exp fig9 -csv           # machine-readable output
//
// By default cardinalities are scaled down (see -scale) so the full suite
// completes on a laptop while preserving the figures' shapes, and task
// measurement runs in parallel (see -measurepar) so a sweep uses every
// host core.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mrskyline/internal/cliflag"
	"mrskyline/internal/experiments"
	"mrskyline/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiments to run: comma-separated ids or 'all' (ids: "+strings.Join(experiments.FigureNames(), ", ")+")")
		scale       = flag.Float64("scale", experiments.DefaultScale, "cardinality scale factor relative to the paper (1 = full size)")
		nodes       = flag.Int("nodes", 13, "simulated cluster nodes (paper: 13)")
		paper       = flag.Bool("paper", false, "use the paper's exact heterogeneous 13-machine cluster")
		slots       = flag.Int("slots", 2, "task slots per node")
		mappers     = flag.Int("mappers", 0, "map tasks (0 = all slots)")
		reds        = flag.Int("reducers", 0, "reduce tasks for MR-GPMRS (0 = one per node)")
		ppd         = flag.Int("ppd", 0, "fixed partitions-per-dimension (0 = Section 3.3 heuristic)")
		seed        = flag.Int64("seed", 1, "data generation seed")
		noskip      = flag.Bool("noskip", false, "run even the combinations the paper reports as DNF")
		asCSV       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		mpar        = flag.Int("measurepar", 0, "concurrently measured tasks (0 = min(GOMAXPROCS, slots), 1 = serial isolation)")
		faultrate   = flag.Float64("faultrate", 0, "deterministic fault-injection rate for crashes/stragglers/corruption (0 = fault-free)")
		faultseed   = flag.Int64("faultseed", 0, "fault plan seed (0 = data seed; only with -faultrate > 0)")
		spillbudget = flag.Int64("spillbudget", 0, "external-memory shuffle budget in bytes (0 = all in RAM); map outputs beyond the budget spill to sorted run files and merge back under it")
		spilldir    = flag.String("spilldir", "", "directory for spill run files (default: the system temp dir; only with -spillbudget > 0)")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto / chrome://tracing)")
		cpuprof     = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof     = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	for _, err := range []error{
		cliflag.ValidateScale(*scale),
		cliflag.ValidateFaultConfig(*faultrate, cliflag.Set("faultseed")),
		cliflag.ValidateSpillConfig(*spillbudget, *spilldir, cliflag.Set("spillbudget"), cliflag.Set("spilldir")),
	} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "skybench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "skybench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "skybench: -memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New()
		defer func() {
			if err := writeTrace(*traceOut, tracer); err != nil {
				fmt.Fprintf(os.Stderr, "skybench: -trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote trace %s (%d spans)\n", *traceOut, len(tracer.Spans()))
			if flame := obs.FlameSummary(tracer); flame != "" {
				fmt.Println(flame)
			}
		}()
	}

	setup := experiments.Setup{
		PaperCluster:       *paper,
		Nodes:              *nodes,
		SlotsPerNode:       *slots,
		Mappers:            *mappers,
		Reducers:           *reds,
		PPD:                *ppd,
		Seed:               *seed,
		Scale:              *scale,
		NoSkip:             *noskip,
		MeasureParallelism: *mpar,
		FaultRate:          *faultrate,
		FaultSeed:          *faultseed,
		SpillBudget:        *spillbudget,
		SpillDir:           *spilldir,
		Trace:              tracer,
	}

	var names []string
	if *exp == "all" {
		names = experiments.FigureNames()
	} else {
		names = strings.Split(*exp, ",")
	}

	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		res, err := experiments.RunFigure(name, setup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("== %s (completed in %.1fs) ==\n\n", res.Name, time.Since(start).Seconds())
		for _, tab := range res.Tables {
			if *asCSV {
				fmt.Printf("# %s\n%s\n", tab.Title, tab.CSV())
			} else {
				fmt.Println(tab.String())
			}
		}
	}
}

// writeTrace exports the tracer as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
