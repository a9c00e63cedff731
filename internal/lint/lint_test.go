package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestDetRandFixture(t *testing.T) {
	diags := runFixture(t, "detrand", DetRand)
	requireSuppressed(t, diags, 1)
}

// TestDetRandExemptPaths verifies the allowlist: the same fixture
// re-badged as internal/sim, cmd, or examples code produces no detrand
// finding, so its one waiver waives nothing there and is reported.
func TestDetRandExemptPaths(t *testing.T) {
	pkg, err := LoadFixture("testdata/src/detrand")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"iobt/internal/sim", "iobt/cmd/iobtsim", "iobt/examples/quickstart"} {
		pkg.Path = path
		prog := NewProgram([]*Package{pkg})
		active := Active(prog.analyzePackage(pkg, []*Analyzer{DetRand}))
		if len(active) != 1 || !strings.Contains(active[0].Message, "iobt:allow detrand waives nothing") {
			t.Errorf("path %s: want only the unused waiver, got %v", path, active)
		}
	}
}

// TestSuppressFixture runs the full suite so the allow-comment
// machinery itself is exercised: missing reasons, unknown analyzer
// names and waivers that cover nothing are findings, and the one
// reasoned allow suppresses.
func TestSuppressFixture(t *testing.T) {
	diags := runFixture(t, "suppress", Analyzers()...)
	requireSuppressed(t, diags, 1)
}

// treeOnce loads the whole repository once for the tree-wide tests.
var treeOnce = sync.OnceValues(func() (*Program, error) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		return nil, err
	}
	return NewProgram(pkgs), nil
})

func loadTree(t *testing.T) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("full-tree load skipped in -short (CI runs iobtlint directly)")
	}
	prog, err := treeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTreeClean is the acceptance criterion in test form: the full
// analyzer suite over the whole repository reports zero active
// findings — every waiver carries a reason — and the waiver count is
// pinned, so adding one is a deliberate edit here.
func TestTreeClean(t *testing.T) {
	diags := loadTree(t).Analyze(Analyzers())
	if active := Active(diags); len(active) != 0 {
		var b strings.Builder
		for _, d := range active {
			b.WriteString("  " + d.String() + "\n")
		}
		t.Errorf("iobtlint findings on the tree:\n%s", b.String())
	}
	cov := Summarize(diags)
	if cov.Analyzers != 6 {
		t.Errorf("analyzer count = %d, want 6", cov.Analyzers)
	}
	if cov.Allowed != 3 {
		t.Errorf("reasoned iobt:allow waivers on the tree = %d, want 3", cov.Allowed)
	}
}

// reachKeep lists the declarations TestTreeReachable accepts without a
// non-test caller, each with the reason it stays. A kept declaration
// counts as an entry point, so what it calls needs no entry of its own.
var reachKeep = map[string]string{
	"iobt/internal/lint.LoadFixture":                 "loads the analyzer fixtures under testdata, which the go tool does not list",
	"(*iobt/internal/lint.Program).Summary":          "the taint-summary tests read the interprocedural leg through it",
	"(*iobt/internal/mesh.shardRun).linked":          "the brute-force oracle TestPeersMatchesBruteForce compares peers against",
	"(*iobt/internal/adapt.SpanningTree).Legal":      "the global invariant the spanning-tree tests check self-stabilisation against",
	"(*iobt/internal/game.Game).IsEquilibrium":       "the Nash-equilibrium oracle the game tests check convergence against",
	"(*iobt/internal/game.Game).Potential":           "the potential-function oracle the game tests check improving moves against",
	"(*iobt/internal/service.QueueFullError).Unwrap": "errors.Is calls it through an unexported interface when the HTTP layer maps ErrQueueFull to 429",
}

// TestTreeReachable holds the tree to "no non-test caller, no code":
// every package-level declaration and method in a non-test file is
// reached from an entry point — a main function, an init function or
// a package-level variable initializer — through the uses go/types
// records in non-test files, or it is on reachKeep.
func TestTreeReachable(t *testing.T) {
	pkgs := loadTree(t).Pkgs
	bare := map[string]bool{}
	for _, d := range unreachable(pkgs, nil) {
		bare[d.key] = true
	}
	for k := range reachKeep {
		if !bare[k] {
			t.Errorf("reachKeep entry %s is reached or no longer declared: drop it", k)
		}
	}
	for _, d := range unreachable(pkgs, reachKeep) {
		pos := d.pkg.Fset.Position(d.node.Pos())
		t.Errorf("%s (%s:%d) has no caller outside tests: delete it or add it to reachKeep with a reason",
			d.key, filepath.Base(pos.Filename), pos.Line)
	}
}

// A reachDecl is one package-level declaration or method in a non-test
// file.
type reachDecl struct {
	key  string
	pkg  *Package
	node ast.Node
	obj  types.Object
}

// reachWalk marks declarations reached from the entry points. Keys are
// reachKey strings, because each package holds its own copy of every
// object it imports.
type reachWalk struct {
	decls   map[string]*reachDecl
	reached map[string]bool
	queue   []*reachDecl
	// ifaces holds the method names of every interface a non-test file
	// names and every exported interface of an imported standard
	// package, keyed by the names joined.
	ifaces map[string][]string
}

// reachKey names a package-level object or method the same way in
// every type-check universe.
func reachKey(obj types.Object) string {
	if fn, isFunc := obj.(*types.Func); isFunc {
		return fn.Origin().FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// unreachable returns the declarations in non-test files of pkgs that
// no entry point reaches, the keys of keep counting as entry points. A
// method is reached when it is used, or when its type is reached and it
// helps satisfy one of the interfaces: a dynamic call (fmt's String,
// sort's Less) names no method statically.
func unreachable(pkgs []*Package, keep map[string]string) []*reachDecl {
	w := &reachWalk{decls: map[string]*reachDecl{}, reached: map[string]bool{}, ifaces: interfaces(pkgs)}
	roots := []string{}
	for k := range keep {
		roots = append(roots, k)
	}
	type entry struct {
		pkg  *Package
		node ast.Node
	}
	// main, init and blank initializers: walked, not keyed (init may
	// repeat and `_` names nothing).
	var entries []entry
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						entries = append(entries, entry{pkg, d})
						continue
					}
					w.declare(pkg, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							w.declare(pkg, s.Name, s)
						case *ast.ValueSpec:
							initialized := d.Tok == token.VAR && len(s.Values) > 0
							for _, name := range s.Names {
								k := w.declare(pkg, name, s)
								switch {
								case initialized && k != "":
									roots = append(roots, k)
								case initialized:
									entries = append(entries, entry{pkg, s})
								}
							}
						}
					}
				}
			}
		}
	}
	for _, e := range entries {
		w.walk(e.pkg, e.node)
	}
	for _, k := range roots {
		w.mark(k)
	}
	// Drain, then let every reached type bring in the methods that
	// satisfy an interface, until neither adds anything.
	satisfied := map[string]bool{}
	for len(w.queue) > 0 {
		for len(w.queue) > 0 {
			d := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			w.walk(d.pkg, d.node)
		}
		for k, d := range w.decls {
			if w.reached[k] && !satisfied[k] {
				satisfied[k] = true
				w.satisfy(d.obj)
			}
		}
	}
	var out []*reachDecl
	for k, d := range w.decls {
		if !w.reached[k] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// declare indexes one named declaration and returns its key ("" for
// the blank identifier).
func (w *reachWalk) declare(pkg *Package, name *ast.Ident, node ast.Node) string {
	obj := pkg.Info.Defs[name]
	if obj == nil || name.Name == "_" {
		return ""
	}
	k := reachKey(obj)
	w.decls[k] = &reachDecl{key: k, pkg: pkg, node: node, obj: obj}
	return k
}

func (w *reachWalk) mark(key string) {
	if w.reached[key] {
		return
	}
	w.reached[key] = true
	if d := w.decls[key]; d != nil {
		w.queue = append(w.queue, d)
	}
}

// walk marks every package-level object or method node uses.
func (w *reachWalk) walk(pkg *Package, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		switch obj := pkg.Info.Uses[id].(type) {
		case *types.Func:
			w.mark(reachKey(obj))
		case *types.TypeName, *types.Const, *types.Var:
			if obj.Pkg() == nil {
				return true // universe
			}
			if v, isVar := obj.(*types.Var); isVar && v.IsField() {
				return true
			}
			if obj.Pkg() != pkg.Types || obj.Parent() == pkg.Types.Scope() {
				w.mark(reachKey(obj))
			}
		}
		return true
	})
}

// interfaces returns the method names of error, of every interface a
// non-test file of pkgs names and of every exported interface of a
// package they import from outside pkgs, keyed by the names joined.
func interfaces(pkgs []*Package) map[string][]string {
	ifaces := map[string][]string{}
	add := func(t types.Type) {
		iface, isIface := t.Underlying().(*types.Interface)
		if !isIface || iface.NumMethods() == 0 {
			return
		}
		names := make([]string, iface.NumMethods())
		for i := range names {
			names[i] = iface.Method(i).Name()
		}
		ifaces[strings.Join(names, ",")] = names
	}
	add(types.Universe.Lookup("error").Type())
	tree := map[string]bool{}
	for _, pkg := range pkgs {
		tree[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if tree[imp.Path()] {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, isType := imp.Scope().Lookup(name).(*types.TypeName); isType && tn.Exported() {
					add(tn.Type())
				}
			}
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if e, isExpr := n.(ast.Expr); isExpr {
					if tv, known := pkg.Info.Types[e]; known && tv.IsType() {
						add(tv.Type)
					}
				}
				return true
			})
		}
	}
	return ifaces
}

// satisfying returns, by name, the methods of named that between them
// cover every method of some interface in ifaces.
func satisfying(named *types.Named, ifaces map[string][]string) map[string]types.Object {
	ms := types.NewMethodSet(types.NewPointer(named))
	has := map[string]types.Object{}
	for i := 0; i < ms.Len(); i++ {
		has[ms.At(i).Obj().Name()] = ms.At(i).Obj()
	}
	out := map[string]types.Object{}
	for _, names := range ifaces {
		all := true
		for _, n := range names {
			all = all && has[n] != nil
		}
		if all {
			for _, n := range names {
				out[n] = has[n]
			}
		}
	}
	return out
}

// satisfy marks the methods of a reached type that, between them, cover
// every method of some interface.
func (w *reachWalk) satisfy(obj types.Object) {
	named, isNamed := obj.Type().(*types.Named)
	if _, isType := obj.(*types.TypeName); !isType || !isNamed || types.IsInterface(named) {
		return
	}
	for _, m := range satisfying(named, w.ifaces) {
		w.mark(reachKey(m))
	}
}

// TestCoverageSummary checks the benchtab-facing summary arithmetic.
func TestCoverageSummary(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "detrand", Message: "a"},
		{Analyzer: "dettaint", Message: "b", Suppressed: true, Reason: "r"},
	}
	cov := Summarize(diags)
	if cov.Analyzers != 6 || cov.Findings != 1 || cov.Allowed != 1 {
		t.Errorf("coverage = %+v", cov)
	}
	if len(cov.Names) != 6 || cov.Names[0] != "defercycle" {
		t.Errorf("names = %v, want 6 sorted analyzer names", cov.Names)
	}
	if cov.ByAnalyzer["detrand"].Findings != 1 || cov.ByAnalyzer["dettaint"].Allowed != 1 {
		t.Errorf("per-analyzer counts = %+v", cov.ByAnalyzer)
	}
	if len(Active(diags)) != 1 {
		t.Errorf("active = %d, want 1", len(Active(diags)))
	}
}

func TestDetTaintFixture(t *testing.T) {
	diags := runFixture(t, "dettaint", DetTaint)
	requireSuppressed(t, diags, 1)
}

// TestMapOrderFixture runs the retired maporder analyzer's fixture
// through dettaint: every local map-order flow it caught is still a
// finding, once per sink call.
func TestMapOrderFixture(t *testing.T) {
	diags := runFixture(t, "maporder", DetTaint)
	requireSuppressed(t, diags, 1)
}

// TestGossipDetFixture pins the gossip fanout determinism contract
// (sorted peer IDs before the seeded shuffle): the unsorted-escape,
// order-dependent-draw, and laundered-through-a-call shapes are all
// findings, while the sort-then-shuffle idiom mesh.Gossip uses is
// clean.
func TestGossipDetFixture(t *testing.T) {
	diags := runFixture(t, "gossipdet", DetTaint)
	requireSuppressed(t, diags, 1)
}

func TestEnumCaseFixture(t *testing.T) {
	diags := runFixture(t, "enumcase", EnumCase)
	requireSuppressed(t, diags, 1)
}

// TestEnumMutationGuard simulates the add-a-variant bug: it appends a
// new constant to the fixture enum and asserts the switch that was
// fully covered before the mutation is now a stale-switch finding.
func TestEnumMutationGuard(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "enumcase", "enumcase.go"))
	if err != nil {
		t.Fatal(err)
	}
	const marker = "// enum-mutation-point: the guard test inserts a new constant here."
	if !strings.Contains(string(src), marker) {
		t.Fatalf("fixture lost its mutation marker %q", marker)
	}
	mutated := strings.Replace(string(src), marker, "PhaseRegroup\n\t"+marker, 1)
	// The pre-mutation fixture declares its own wants; strip them so
	// only the mutation's effect is measured.
	mutated = regexp.MustCompile(`(?m)// want .*$`).ReplaceAllString(mutated, "")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "enumcase.go"), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Active(NewProgram([]*Package{pkg}).analyzePackage(pkg, []*Analyzer{EnumCase}))
	stale := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "PhaseRegroup") {
			stale++
		}
	}
	// Every unwaived switch that lacked a default before the mutation
	// must go stale: covered, coveredByAlias, and incomplete all now
	// miss PhaseRegroup. defaulted opted out; the waived switch stays
	// suppressed by its reasoned allow.
	if stale < 3 {
		t.Errorf("adding PhaseRegroup produced %d stale-switch findings, want >= 3:\n%v", stale, diags)
	}
}

func TestMatchPackage(t *testing.T) {
	cases := []struct {
		glob, path string
		want       bool
	}{
		{"", "iobt/internal/mesh", true},
		{"...", "iobt/internal/mesh", true},
		{"iobt/internal/mesh", "iobt/internal/mesh", true},
		{"iobt/internal/mesh", "iobt/internal/meshx", false},
		{"iobt/internal/...", "iobt/internal/mesh", true},
		{"iobt/internal/...", "iobt/internal", true},
		{"iobt/internal/...", "iobt/cmd/iobtlint", false},
		{"iobt/*/mesh", "iobt/internal/mesh", true},
		{"iobt/*/mesh", "iobt/internal/core", false},
		{"iobt/internal/m*", "iobt/internal/mesh", true},
		{"iobt/internal/m*", "iobt/internal/core", false},
		{"iobt/*", "iobt/internal/mesh", false}, // "*" spans one segment only
	}
	for _, c := range cases {
		if got := MatchPackage(c.glob, c.path); got != c.want {
			t.Errorf("MatchPackage(%q, %q) = %v, want %v", c.glob, c.path, got, c.want)
		}
	}
}

// TestAnalyzeMatchingFilters runs two fixtures through one program and
// asserts the glob restricts reporting to the matching package.
func TestAnalyzeMatchingFilters(t *testing.T) {
	rp, err := LoadFixture("testdata/src/detrand")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := LoadFixture("testdata/src/dettaint")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{rp, dp})
	all := Active(prog.Analyze([]*Analyzer{DetRand, DetTaint}))
	// Fixtures load under iobtlint/fixture/<dir>.
	filtered := Active(prog.AnalyzeMatching([]*Analyzer{DetRand, DetTaint}, "iobtlint/*/detrand"))
	if len(filtered) == 0 || len(filtered) >= len(all) {
		t.Fatalf("filtered = %d findings, all = %d; want a strict non-empty subset", len(filtered), len(all))
	}
	for _, d := range filtered {
		if !strings.Contains(d.Pos.Filename, "detrand") {
			t.Errorf("glob \"detrand\" leaked finding from %s", d.Pos.Filename)
		}
	}
}

func TestShardownFixture(t *testing.T) {
	diags := runFixture(t, "shardown", Shardown)
	requireSuppressed(t, diags, 1)
}

func TestGoCaptureFixture(t *testing.T) {
	diags := runFixture(t, "gocapture", GoCapture)
	requireSuppressed(t, diags, 1)
}

func TestDeferCycleFixture(t *testing.T) {
	diags := runFixture(t, "defercycle", DeferCycle)
	requireSuppressed(t, diags, 1)
}

// TestGoCaptureSummaries pins the interprocedural leg directly: the
// fixture makers' escaping parameters are recorded in the program's
// capture summaries, receiver-first like taint summaries.
func TestGoCaptureSummaries(t *testing.T) {
	pkg, err := LoadFixture("testdata/src/gocapture")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	cases := map[string][]int{
		"iobtlint/fixture/gocapture.counterTick": {0},
		"iobtlint/fixture/gocapture.frozenTick":  {0},
		"iobtlint/fixture/gocapture.goodSend":    {1, 2, 3},
	}
	for key, want := range cases {
		got := prog.captures[key]
		if len(got) != len(want) {
			t.Errorf("captures[%s] = %v, want %v", key, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("captures[%s] = %v, want %v", key, got, want)
				break
			}
		}
	}
}

// TestWriteDOTDeterministic renders the call graph twice and requires
// byte-identical output — the linter holds itself to its own rules.
func TestWriteDOTDeterministic(t *testing.T) {
	pkg, err := LoadFixture("testdata/src/dettaint")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	var a, b strings.Builder
	if err := prog.Graph.WriteDOT(&a); err != nil {
		t.Fatal(err)
	}
	if err := prog.Graph.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteDOT output differs between calls")
	}
	if !strings.Contains(a.String(), "pickFirst") {
		t.Errorf("call graph missing fixture node:\n%s", a.String())
	}
	if !strings.Contains(a.String(), "->") {
		t.Error("call graph has no edges")
	}
}
