// Command iobtbench is the repo's benchmark: five named workloads
// driven from one process, every metric printed by name with its unit,
// and a non-zero exit when an output is wrong. BENCHMARK.json at the
// repo root is its manifest; README.md beside this file says what each
// workload is for and how the numbers are meant to be read.
//
//	go run ./cmd/iobtbench --workload gossip_cop --seed 42 --seconds 18 --trace 0
//
// It touches nothing outside this directory: every layer is measured
// from outside, by timing calls into public functions and by wrapping
// the callbacks the benchmark itself supplies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iobtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	seed := fs.Int64("seed", 42, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "how long the timed units of one workload run (0: BENCHMARK.json's run_seconds, or 0.2 with -quick)")
	trace := fs.Int("trace", 0, "0: report the end-to-end metrics; 1: alternate untraced and traced units and report the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans of each workload's last traced unit to this file as JSON")
	quick := fs.Bool("quick", false, "shrink every unit about 20x (same workloads, same metric names)")
	repeat := fs.Int("repeat", 1, "run the selected workloads this many times and judge the spread of each end-to-end metric against its bound")
	tmp := fs.String("tmp", ".bench_tmp", "directory for service_flood's checkpoint stores (created, and removed if this run created it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "iobtbench: unknown workload %q or stray argument %q\n", *name, fs.Args())
		return 2
	}
	if _, err := os.Stat(*tmp); os.IsNotExist(err) {
		defer os.RemoveAll(*tmp)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "iobtbench: %v\n", err)
		return 1
	}
	e := env{seed: *seed, quick: *quick, tmp: *tmp}
	if *seconds == 0 {
		*seconds = runSeconds
		if *quick {
			*seconds = 0.2
		}
	}

	ok := true
	sets := make([][]report, *repeat)
	allSpans := map[string][]span{}
	for i := range sets {
		for _, w := range selected {
			rep := runWorkload(w, e, *seconds, *trace == 1)
			rep.print(stdout)
			ok = ok && rep.Correct
			sets[i] = append(sets[i], rep)
			allSpans[w.name] = rep.spans
		}
	}
	if *repeat > 1 && *trace == 0 {
		ok = printSpread(stdout, sets) && ok
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			fmt.Fprintf(stderr, "iobtbench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// print writes the report as text — one "workload metric value unit"
// line per metric, then the simulated statistics and any problem — and
// last the JSON result line the acceptance driver reads.
func (r report) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-16s %-34s %16.6f %s\n", r.workload, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-16s %-34s %16.6f %s\n", r.workload, "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), "frac")
	fmt.Fprintf(w, "%-16s %-34s %16d %s\n", r.workload, "sample_count", r.units, "count")
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-16s # %s\n", r.workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-16s ! %s\n", r.workload, p)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		line = []byte(fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err))
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printSpread prints, for each end-to-end metric of each workload, the
// median, quartiles and relative spread across the repeated sets, and
// reports whether every spread stayed within the metric's bound —
// quartiles as Python's statistics.quantiles gives them, so the verdict
// matches the acceptance driver's.
func printSpread(w io.Writer, sets [][]report) bool {
	ok := true
	fmt.Fprintf(w, "\n%-16s %-10s %12s %12s %12s %9s %9s %7s\n",
		"workload", "metric", "q1", "median", "q3", "iqr/med", "max/min-1", "bound")
	for wi, first := range sets[0] {
		for _, d := range endToEnd {
			vals := make([]float64, len(sets))
			for si := range sets {
				vals[si] = sets[si][wi].Metrics[d.name].Value
			}
			q1, q2, q3 := quartiles(vals)
			sort.Float64s(vals)
			spread := ratio(q3-q1, q2)
			verdict := ""
			// setup_s is judged on its median only, as the driver does.
			if spread > d.bound && d.name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-10s %12.6f %12.6f %12.6f %9.4f %9.4f %7.2f%s\n",
				first.workload, d.name, q1, q2, q3, spread, ratio(vals[len(vals)-1], vals[0])-1, d.bound, verdict)
		}
	}
	return ok
}
