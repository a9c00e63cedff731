// Package lint is iobtlint: a suite of custom static analyzers that
// enforce the simulator's determinism, ownership and hot-loop
// contracts at build time. Every reproduced claim rests on same-seed ⇒
// same-trace; the invariant registry and the scenario fuzzer enforce
// that contract dynamically (DESIGN.md §8), while this package enforces
// it statically, so a violation is a build error rather than a fuzzer
// find three PRs later.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer /
// Pass / Diagnostic) but is built on the standard library only:
// packages are located with `go list -export -json` and type-checked
// with go/types against the compiler's export data, so the tool needs
// nothing outside the Go toolchain already required to build the repo.
//
// A finding is suppressed — with an audit trail — by a comment on the
// flagged line or the line directly above it:
//
//	//iobt:allow <analyzer> <reason>
//
// The reason is mandatory: an allow comment without one is itself a
// finding, so suppressions cannot silently accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named rule and how to run it over a
// package.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow comments.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (test variants keep the base
	// path, so allowlists match both).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Prog is the whole-program view (call graph, taint summaries) the
	// interprocedural analyzers consult; always non-nil.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding, after suppression processing.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	// Suppressed is true when a reasoned iobt:allow comment covers the
	// finding; suppressed findings never fail the build.
	Suppressed bool `json:"suppressed,omitempty"`
	// Reason is the justification from the allow comment.
	Reason string `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", d.Reason)
	}
	return s
}

// allowRe matches an allow comment: `//iobt:allow <analyzer> <reason>`.
// The reason group is everything after the analyzer name; empty is
// diagnosed as a malformed suppression.
var allowRe = regexp.MustCompile(`^//\s*iobt:allow\s+([A-Za-z0-9_-]+)[ \t]*(.*)$`)

// allow is one parsed iobt:allow comment.
type allow struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// suppressions indexes allow comments by (file, line).
type suppressions struct {
	byLine map[string]map[int][]*allow
	all    []*allow
}

// scanAllows collects every iobt:allow comment in files.
func scanAllows(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]*allow{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				reason := strings.TrimSpace(m[2])
				// Fixture files annotate expected findings with
				// trailing `// want ...` directives; they are not part
				// of the reason.
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = strings.TrimSpace(reason[:i])
				}
				a := &allow{analyzer: m[1], reason: reason, pos: pos}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*allow{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], a)
				s.all = append(s.all, a)
			}
		}
	}
	return s
}

// match returns the allow comment covering a finding by analyzer at
// pos: one on the same line or on the line directly above.
func (s *suppressions) match(analyzer string, pos token.Position) *allow {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, a := range lines[line] {
			if a.analyzer == analyzer {
				return a
			}
		}
	}
	return nil
}

// apply folds the allow comments into raw findings: covered findings
// are marked suppressed (when the reason is non-empty), and malformed
// or unknown-analyzer allow comments become findings of their own, so
// the escape hatch cannot rot silently.
func (s *suppressions) apply(diags []Diagnostic, known map[string]bool) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if a := s.match(d.Analyzer, d.Pos); a != nil && a.reason != "" {
			a.used = true
			d.Suppressed = true
			d.Reason = a.reason
		}
		out = append(out, d)
	}
	for _, a := range s.all {
		switch {
		case a.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "allow",
				Pos:      a.pos,
				Message:  fmt.Sprintf("iobt:allow %s has no reason; suppressions must say why", a.analyzer),
			})
		case !known[a.analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "allow",
				Pos:      a.pos,
				Message:  fmt.Sprintf("iobt:allow names unknown analyzer %q", a.analyzer),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings by position then analyzer, so output
// is stable across runs (the linter holds itself to the determinism
// rules it enforces).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Analyzers returns the full iobtlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRand, DetTaint, EnumCase,
		Shardown, GoCapture, DeferCycle,
	}
}

// analyzePackage runs every analyzer in as over one loaded package and
// resolves suppressions.
func (prog *Program) analyzePackage(pkg *Package, as []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range as {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Prog:     prog,
			diags:    &raw,
		}
		a.Run(pass)
	}
	// Allow comments validate against the full registry, not just the
	// analyzers in this run: waiving a real analyzer that happens not
	// to be running is fine; naming one that does not exist never is.
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	return scanAllows(pkg.Fset, pkg.Files).apply(raw, known)
}
