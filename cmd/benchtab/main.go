// Command benchtab regenerates the experiment tables of EXPERIMENTS.md:
// one table per paper claim (DESIGN.md §4, experiments E1..E18).
//
// Usage:
//
//	benchtab -experiment all          # every table (slow, full scale)
//	benchtab -experiment E2 -quick    # one table at reduced scale
//	benchtab -experiment E15 -format json > BENCH_E15.json
//	benchtab -list                    # enumerate experiments
//	benchtab -bench                   # pinned hot-path micro-benchmarks
//	benchtab -bench -format json > BENCH_MICRO.json   # refresh the baseline
//	benchtab -bench -compare BENCH_MICRO.json         # CI bench gate
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"iobt/internal/experiments"
	"iobt/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id (E1..E18) or 'all'")
		seed       = fs.Int64("seed", 42, "deterministic seed")
		quick      = fs.Bool("quick", false, "reduced workload sizes")
		list       = fs.Bool("list", false, "list experiments and exit")
		format     = fs.String("format", "table", "output format: table|csv|json")
		bench      = fs.Bool("bench", false, "run the pinned hot-path micro-benchmarks instead of an experiment")
		compare    = fs.String("compare", "", "with -bench: compare against this baseline JSON and fail on regression")
		maxRegress = fs.Float64("maxregress", 0.15, "with -bench -compare: tolerated ns/op regression as a fraction (allocs/op tolerates nothing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench {
		host := &experiments.Host{GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
		t := runMicroBenches(host)
		if *format == "json" {
			fmt.Println(t.JSON())
		} else {
			fmt.Println(t.String())
		}
		if *compare != "" {
			base, err := loadMicroBaseline(*compare)
			if err != nil {
				return err
			}
			return compareMicro(t, base, *maxRegress)
		}
		return nil
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return nil
	}
	// JSON output embeds the iobtlint coverage of the tree that produced
	// the numbers, so committed BENCH_*.json records static checking
	// alongside invariant checking. Failure to lint (e.g. running the
	// binary outside the module) degrades to numbers-only output.
	var static *lint.Coverage
	if *format == "json" {
		if diags, err := lint.Run("", "./..."); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab: static coverage unavailable:", err)
		} else {
			cov := lint.Summarize(diags)
			static = &cov
		}
	}
	// Host metadata makes scaling columns self-describing: BENCH_E18's
	// speedup figures only mean anything next to the parallelism the
	// host offered the run.
	host := &experiments.Host{GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	render := func(t *experiments.Table) string {
		t.Static = static
		t.Host = host
		switch *format {
		case "csv":
			return t.CSV()
		case "json":
			return t.JSON()
		default:
			return t.String()
		}
	}
	if strings.EqualFold(*experiment, "all") {
		for _, e := range experiments.All() {
			fmt.Println(render(e.Run(*seed, *quick)))
		}
		return nil
	}
	e, ok := experiments.Lookup(*experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
	}
	fmt.Println(render(e.Run(*seed, *quick)))
	return nil
}
