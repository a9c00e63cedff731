package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestDetRandFixture(t *testing.T) {
	diags := runFixture(t, "detrand", DetRand)
	requireSuppressed(t, diags, 1)
}

// TestDetRandExemptPaths verifies the allowlist: the same fixture
// re-badged as internal/sim, cmd, or examples code produces nothing.
func TestDetRandExemptPaths(t *testing.T) {
	pkg, err := LoadFixture("testdata/src/detrand")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"iobt/internal/sim", "iobt/cmd/iobtsim", "iobt/examples/quickstart"} {
		pkg.Path = path
		prog := NewProgram([]*Package{pkg})
		if diags := prog.analyzePackage(pkg, []*Analyzer{DetRand}); len(Active(diags)) != 0 {
			t.Errorf("path %s: want no findings, got %v", path, Active(diags))
		}
	}
}

func TestSnapshotPairFixture(t *testing.T) {
	diags := runFixture(t, "snapshotpair", SnapshotPair)
	requireSuppressed(t, diags, 1)
}

func TestMetricRegFixture(t *testing.T) {
	diags := runFixture(t, "metricreg", MetricReg)
	requireSuppressed(t, diags, 1)
}

// TestSuppressFixture runs the full suite so the allow-comment
// machinery itself is exercised: missing reasons and unknown analyzer
// names are findings, and the one reasoned allow suppresses.
func TestSuppressFixture(t *testing.T) {
	diags := runFixture(t, "suppress", Analyzers()...)
	requireSuppressed(t, diags, 1)
}

// TestTreeClean is the acceptance criterion in test form: the full
// analyzer suite over the whole repository reports zero active
// findings — every waiver carries a reason — and the waiver count is
// pinned, so adding one is a deliberate edit here.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint skipped in -short (CI runs iobtlint directly)")
	}
	diags, err := Run("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if active := Active(diags); len(active) != 0 {
		var b strings.Builder
		for _, d := range active {
			b.WriteString("  " + d.String() + "\n")
		}
		t.Errorf("iobtlint findings on the tree:\n%s", b.String())
	}
	cov := Summarize(diags)
	if cov.Analyzers != 11 {
		t.Errorf("analyzer count = %d, want 11", cov.Analyzers)
	}
	if cov.Allowed != 36 {
		t.Errorf("reasoned iobt:allow waivers on the tree = %d, want 36", cov.Allowed)
	}
}

// TestCoverageSummary checks the benchtab-facing summary arithmetic.
func TestCoverageSummary(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "detrand", Message: "a"},
		{Analyzer: "dettaint", Message: "b", Suppressed: true, Reason: "r"},
	}
	cov := Summarize(diags)
	if cov.Analyzers != 11 || cov.Findings != 1 || cov.Allowed != 1 {
		t.Errorf("coverage = %+v", cov)
	}
	if len(cov.Names) != 11 || cov.Names[0] != "barrierstate" {
		t.Errorf("names = %v, want 11 sorted analyzer names", cov.Names)
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

func TestErrDropFixture(t *testing.T) {
	diags := runFixture(t, "errdrop", ErrDrop)
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
	ep, err := LoadFixture("testdata/src/errdrop")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := LoadFixture("testdata/src/dettaint")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{ep, dp})
	all := Active(prog.Analyze([]*Analyzer{DetTaint, ErrDrop}))
	// Fixtures load under iobtlint/fixture/<dir>.
	filtered := Active(prog.AnalyzeMatching([]*Analyzer{DetTaint, ErrDrop}, "iobtlint/*/errdrop"))
	if len(filtered) == 0 || len(filtered) >= len(all) {
		t.Fatalf("filtered = %d findings, all = %d; want a strict non-empty subset", len(filtered), len(all))
	}
	for _, d := range filtered {
		if !strings.Contains(d.Pos.Filename, "errdrop") {
			t.Errorf("glob \"errdrop\" leaked finding from %s", d.Pos.Filename)
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

func TestBarrierStateFixture(t *testing.T) {
	diags := runFixture(t, "barrierstate", BarrierState)
	requireSuppressed(t, diags, 1)
}

func TestHotAllocFixture(t *testing.T) {
	diags := runFixture(t, "hotalloc", HotAlloc)
	requireSuppressed(t, diags, 1)
}

// TestHotBoxFixture runs the retired hotbox analyzer's fixture through
// hotalloc, where interface boxing and method values are allocation
// sites, followed through cold callees like any other.
func TestHotBoxFixture(t *testing.T) {
	runFixture(t, "hotbox", HotAlloc)
}

func TestDeferCycleFixture(t *testing.T) {
	diags := runFixture(t, "defercycle", DeferCycle)
	requireSuppressed(t, diags, 1)
}

// TestAllocSummaries pins hotalloc's interprocedural leg directly: the
// fixture's cold helpers carry allocation facts, and the two-frame
// chain (hotCaller → wrap → newPoint) survives propagation — the case
// a per-function pass or a taint pass like dettaint cannot express.
func TestAllocSummaries(t *testing.T) {
	pkg, err := LoadFixture("testdata/src/hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram([]*Package{pkg})
	cases := map[string]string{
		"iobtlint/fixture/hotalloc.newPoint": "composite literal",
		"iobtlint/fixture/hotalloc.wrap":     "calls newPoint, which composite literal",
		"iobtlint/fixture/hotalloc.makeTick": "returns a closure capturing hits",
	}
	for key, want := range cases {
		facts := prog.AllocFacts(key)
		if len(facts) == 0 {
			t.Errorf("AllocFacts(%s) empty, want a fact containing %q", key, want)
			continue
		}
		if !strings.Contains(facts[0], want) {
			t.Errorf("AllocFacts(%s)[0] = %q, want containing %q", key, facts[0], want)
		}
	}
	// The clean reuse shapes must summarize as non-allocating.
	if facts := prog.AllocFacts("(*iobtlint/fixture/hotalloc.holder).reused"); len(facts) != 0 {
		t.Errorf("reused buffer shape summarized as allocating: %v", facts)
	}
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
