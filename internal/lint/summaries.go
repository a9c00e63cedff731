package lint

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// A Program is the whole-repo view the interprocedural analyzers run
// on: every loaded package, the call graph over them, and one taint
// Summary per function, computed bottom-up over the call graph's
// strongly connected components so each function is analyzed once with
// all of its callees' summaries in hand (members of a cycle iterate to
// a fixpoint). Findings discovered while summarizing are attributed to
// the package they occur in and emitted when that package's dettaint
// pass runs, so suppression comments and fixture want-directives see
// them like any other diagnostic.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph

	summaries   map[string]*Summary
	methodImpls map[string][]string
	findings    []programFinding
	// seen holds the (package, position) of every finding: one per site.
	seen map[programFinding]bool

	// notes indexes the //iobt: shard-safety annotations across every
	// loaded package (see annotations.go).
	notes *annotations
	// captures maps a function key to the parameter indices (receiver
	// first, matching Summary numbering) that flow into an event closure
	// the function schedules or returns — the interprocedural leg of the
	// gocapture analyzer.
	captures map[string][]int
}

// maxSCCIterations bounds fixpoint iteration inside one recursive
// cycle; taint sets only grow, so convergence is fast in practice.
const maxSCCIterations = 8

// NewProgram builds the call graph and computes the two per-function
// summaries (taint, captures), each in one bottom-up pass over the same
// SCCs.
func NewProgram(pkgs []*Package) *Program {
	graph := buildCallGraph(pkgs)
	prog := &Program{
		Pkgs:        pkgs,
		Graph:       graph,
		summaries:   map[string]*Summary{},
		seen:        map[programFinding]bool{},
		methodImpls: graph.methodImpls,
		notes:       scanNotes(pkgs),
		captures:    map[string][]int{},
	}
	comps := graph.sccs()
	bottomUp(comps, func(n *CGNode) bool {
		before := prog.summaries[n.Key]
		next := analyzeFunc(prog, n)
		prog.summaries[n.Key] = next
		return before == nil || before.fingerprint() != next.fingerprint()
	})
	bottomUp(comps, func(n *CGNode) bool { return update(prog.captures, n.Key, computeCaptures(prog, n)) })

	sort.Slice(prog.findings, func(i, j int) bool {
		a, b := prog.findings[i], prog.findings[j]
		if a.pkgPath != b.pkgPath {
			return a.pkgPath < b.pkgPath
		}
		return a.pos < b.pos
	})
	return prog
}

// bottomUp runs step on every node, callees before callers (sccs
// order), so each step sees its callees' finished results. step
// recomputes one node's result and reports whether it changed; the
// members of a cycle repeat until none does (results only grow), at
// most maxSCCIterations times.
func bottomUp(comps [][]*CGNode, step func(*CGNode) bool) {
	for _, comp := range comps {
		for iter := 0; iter < maxSCCIterations; iter++ {
			changed := false
			for _, node := range comp {
				if step(node) {
					changed = true
				}
			}
			if !changed || len(comp) == 1 {
				break
			}
		}
	}
}

// update stores next as m[key] and reports whether it differs from the
// value it replaces.
func update[T comparable](m map[string][]T, key string, next []T) bool {
	changed := !slices.Equal(m[key], next)
	m[key] = next
	return changed
}

// report records one dettaint finding. The first report at a position
// wins: fixpoint iterations re-analyze a function, and the data-flow
// and control-dependence rules may both reach the same sink call.
func (prog *Program) report(pkg *Package, pos token.Pos, format string, args ...any) {
	site := programFinding{pkgPath: pkg.Path, pos: pos}
	if prog.seen[site] {
		return
	}
	prog.seen[site] = true
	site.msg = fmt.Sprintf(format, args...)
	prog.findings = append(prog.findings, site)
}

// findingsFor returns the dettaint findings recorded for one package.
func (prog *Program) findingsFor(path string) []programFinding {
	var out []programFinding
	for _, f := range prog.findings {
		if f.pkgPath == path {
			out = append(out, f)
		}
	}
	return out
}

// Summary returns the computed summary for a function key, for tests
// and debugging ("(*iobt/internal/trust.Ledger).Snapshot").
func (prog *Program) Summary(key string) *Summary { return prog.summaries[key] }

// Analyze runs the analyzers over every package in the program and
// returns all findings globally ordered by file, line, column, and
// analyzer — stable for CI diffing.
func (prog *Program) Analyze(as []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		out = append(out, prog.analyzePackage(pkg, as)...)
	}
	sortDiagnostics(out)
	return out
}

// AnalyzeMatching is Analyze restricted to packages whose import path
// matches the glob (see MatchPackage); the program-wide call graph and
// summaries still span every loaded package, so cross-package taint
// into a filtered package is not lost.
func (prog *Program) AnalyzeMatching(as []*Analyzer, glob string) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		if MatchPackage(glob, pkg.Path) {
			out = append(out, prog.analyzePackage(pkg, as)...)
		}
	}
	sortDiagnostics(out)
	return out
}

// MatchPackage reports whether a package import path matches a
// path-glob: a literal path, a "..." suffix for subtree matches
// ("iobt/internal/..."), or "*" wildcards within one path segment
// ("iobt/*/mesh"). An empty glob matches everything.
func MatchPackage(glob, path string) bool {
	if glob == "" || glob == "..." {
		return true
	}
	if prefix, isTree := strings.CutSuffix(glob, "/..."); isTree {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	gs := strings.Split(glob, "/")
	ps := strings.Split(path, "/")
	if len(gs) != len(ps) {
		return false
	}
	for i := range gs {
		if !segMatch(gs[i], ps[i]) {
			return false
		}
	}
	return true
}

// segMatch matches one path segment against a pattern where '*'
// matches any run of characters.
func segMatch(pat, s string) bool {
	parts := strings.Split(pat, "*")
	if len(parts) == 1 {
		return pat == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(s, p)
		if i < 0 {
			return false
		}
		s = s[i+len(p):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}
