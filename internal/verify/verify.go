// Package verify is the unified correctness-tooling layer: a registry
// of machine-checkable invariants contributed by every subsystem, a
// deterministic scenario fuzzer that derives whole random missions from
// a single seed and runs them with all invariants armed, a shrinker
// that reduces a violating scenario to a minimal replayable reproducer,
// and metamorphic properties run as differential checks (permutation
// invariance, solver agreement, checkpoint-cadence independence).
//
// The paper's central premise is IoBTs that stay correct "in the
// presence of adversarial disruption" (§IV); hand-picked fault plans
// (E14/E15) sample that space at a few points, while the fuzzer walks
// it. Every check is deterministic per seed: a violation found tonight
// replays identically tomorrow from the emitted scenario file.
package verify

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"iobt/internal/sim"
)

// Invariant is one machine-checkable property. Check returns nil while
// the property holds; the returned error should carry the observed
// values so a violation is diagnosable from the report alone.
type Invariant struct {
	Name  string
	Check func() error
}

// Violation is one recorded invariant failure.
type Violation struct {
	At   time.Duration
	Name string
	Err  error
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %v", v.Name, v.At, v.Err)
}

// maxViolations bounds the recorded violation list; a broken invariant
// trips every tick and would otherwise swamp the report.
const maxViolations = 100

// Registry holds the armed invariant set of one run and the audit trail
// of checks performed against it. The zero value is usable.
type Registry struct {
	invs       []Invariant
	checks     uint64
	violations []Violation
	ticker     *sim.Ticker
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add appends pre-built invariants.
func (g *Registry) Add(invs ...Invariant) {
	g.invs = append(g.invs, invs...)
}

// Len returns the number of registered invariants.
func (g *Registry) Len() int { return len(g.invs) }

// Checks returns the total number of individual invariant evaluations.
func (g *Registry) Checks() uint64 { return g.checks }

// Violations returns the recorded failures (bounded at 100).
func (g *Registry) Violations() []Violation { return g.violations }

// record stores a violation, bounded.
func (g *Registry) record(at time.Duration, name string, err error) {
	if len(g.violations) < maxViolations {
		g.violations = append(g.violations, Violation{At: at, Name: name, Err: err})
	}
}

// CheckNow evaluates every invariant once, stamping violations with
// now. It returns the number of invariants that failed this sweep.
func (g *Registry) CheckNow(now time.Duration) int {
	failed := 0
	for _, inv := range g.invs {
		g.checks++
		if err := inv.Check(); err != nil {
			failed++
			g.record(now, inv.Name, err)
		}
	}
	return failed
}

// Arm starts a periodic sweep of all invariants on eng every interval
// (default 1s). Call Disarm (or stop the engine) when done.
func (g *Registry) Arm(eng *sim.Engine, every time.Duration) {
	if g.ticker != nil {
		return
	}
	if every <= 0 {
		every = time.Second
	}
	g.ticker = eng.Every(every, "verify.registry", func() {
		g.CheckNow(eng.Now())
	})
}

// Disarm stops the periodic sweep.
func (g *Registry) Disarm() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
}

// Summary is the compact verification record of one run, suitable for
// embedding in benchmark JSON.
type Summary struct {
	// Invariants is the number of distinct armed invariants.
	Invariants int `json:"invariants"`
	// Checks is the total number of invariant evaluations performed.
	Checks uint64 `json:"checks"`
	// Violations summarizes failures, one line per invariant name with
	// its occurrence count and first observed error.
	Violations []string `json:"violations,omitempty"`
}

// Summarize folds the registry's audit trail into a Summary.
func (g *Registry) Summarize() Summary {
	s := Summary{Invariants: len(g.invs), Checks: g.checks}
	counts := map[string]int{}
	first := map[string]Violation{}
	for _, v := range g.violations {
		if counts[v.Name] == 0 {
			first[v.Name] = v
		}
		counts[v.Name]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := first[name]
		s.Violations = append(s.Violations,
			fmt.Sprintf("%s x%d (first at %s: %v)", name, counts[name], v.At, v.Err))
	}
	return s
}

// Merge folds another run's summary into s — multi-run experiments
// accumulate checks and violations across runs and keep the widest
// invariant set.
func (s *Summary) Merge(o Summary) {
	if o.Invariants > s.Invariants {
		s.Invariants = o.Invariants
	}
	s.Checks += o.Checks
	s.Violations = append(s.Violations, o.Violations...)
}

// String renders the summary as one line.
func (s Summary) String() string {
	if len(s.Violations) == 0 {
		return fmt.Sprintf("verification: %d invariants, %d checks, 0 violations",
			s.Invariants, s.Checks)
	}
	return fmt.Sprintf("verification: %d invariants, %d checks, VIOLATIONS: %s",
		s.Invariants, s.Checks, strings.Join(s.Violations, "; "))
}
