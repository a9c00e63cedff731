// Command iobtlint runs the repo's custom determinism, ownership and
// allocation analyzers (internal/lint) over the given packages:
//
//	go run ./cmd/iobtlint ./...
//	go run ./cmd/iobtlint -list
//	go run ./cmd/iobtlint -only detrand,dettaint ./...
//	go run ./cmd/iobtlint -pkg 'iobt/internal/mesh' ./...
//	go run ./cmd/iobtlint -pkg 'iobt/internal/...' ./...
//	go run ./cmd/iobtlint -json ./... > findings.json
//	go run ./cmd/iobtlint -graph callgraph.dot ./...
//
// -pkg restricts which packages are *reported* on, not which are
// loaded: the interprocedural analyzers always build the whole-program
// call graph and taint summaries, so a flow from an unfiltered package
// into a filtered one is still caught. The glob matches import paths
// segment-wise ("*" within a segment, a trailing "/..." for a subtree).
//
// -graph writes the whole-program call graph as deterministic DOT to
// the named file ("-" for stdout) and exits without linting.
//
// Exit status: 0 when the tree is clean (suppressed findings with a
// reasoned //iobt:allow comment do not count), 1 when there are active
// findings, 2 on usage or load errors. -show-allowed prints the
// suppressed findings too, as an audit trail. JSON output is ordered by
// file, line, column, then analyzer, so runs diff cleanly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"iobt/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("iobtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list analyzers and exit")
		only        = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		pkgGlob     = fs.String("pkg", "", "report findings only for packages matching this import-path glob")
		graphOut    = fs.String("graph", "", "write the call graph as DOT to this file (\"-\" for stdout) and exit")
		jsonOut     = fs.Bool("json", false, "emit findings as JSON")
		showAllowed = fs.Bool("show-allowed", false, "also print findings waived by //iobt:allow")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		as := lint.Analyzers()
		sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
		for _, a := range as {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.Analyzers()
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				fmt.Fprintf(stderr, "iobtlint: unknown analyzer %q; known analyzers: %s\n", name, strings.Join(known, ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.LoadProgram(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "iobtlint: %v\n", err)
		return 2
	}
	if *graphOut != "" {
		out := stdout
		if *graphOut != "-" {
			f, err := os.Create(*graphOut)
			if err != nil {
				fmt.Fprintf(stderr, "iobtlint: %v\n", err)
				return 2
			}
			defer f.Close()
			out = f
		}
		if err := prog.Graph.WriteDOT(out); err != nil {
			fmt.Fprintf(stderr, "iobtlint: %v\n", err)
			return 2
		}
		return 0
	}
	diags := prog.AnalyzeMatching(analyzers, *pkgGlob)
	active := lint.Active(diags)
	shown := active
	if *showAllowed {
		shown = diags
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Coverage lint.Coverage     `json:"coverage"`
			Findings []lint.Diagnostic `json:"findings"`
		}{lint.Summarize(diags), shown}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "iobtlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range shown {
			fmt.Fprintln(stdout, d)
		}
		cov := lint.Summarize(diags)
		fmt.Fprintf(stdout, "iobtlint: %d analyzers, %d findings, %d allowed\n",
			cov.Analyzers, cov.Findings, cov.Allowed)
	}
	if len(active) > 0 {
		return 1
	}
	return 0
}
