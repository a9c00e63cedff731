package lint

import "sort"

// Run loads the packages matching patterns and applies the full
// analyzer suite, returning every finding — including suppressed ones,
// so callers can audit the allow trail. Findings are ordered by file,
// line, column, then analyzer.
func Run(patterns ...string) ([]Diagnostic, error) {
	prog, err := LoadProgram(patterns...)
	if err != nil {
		return nil, err
	}
	return prog.Analyze(Analyzers()), nil
}

// LoadProgram loads the packages matching patterns from the current
// directory and builds the whole-program view (call graph + taint
// summaries) the analyzers run on.
func LoadProgram(patterns ...string) (*Program, error) {
	pkgs, err := Load("", patterns...)
	if err != nil {
		return nil, err
	}
	return NewProgram(pkgs), nil
}

// Active filters ds to the findings that should fail a build:
// everything not suppressed by a reasoned allow comment.
func Active(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Coverage summarizes a lint run for embedding in benchmark JSON
// (BENCH_*.json records static coverage alongside invariant coverage).
type Coverage struct {
	// Analyzers is the number of rules in the suite.
	Analyzers int `json:"analyzers"`
	// Names lists the suite's analyzer names in run order.
	Names []string `json:"names"`
	// Findings is the number of unsuppressed findings (zero at head).
	Findings int `json:"findings"`
	// Allowed is the number of findings waived by iobt:allow comments.
	Allowed int `json:"allowed,omitempty"`
	// ByAnalyzer breaks both counts down per analyzer (keys are sorted
	// by encoding/json, so the block diffs cleanly in CI).
	ByAnalyzer map[string]AnalyzerCount `json:"by_analyzer,omitempty"`
}

// AnalyzerCount is one analyzer's share of a run's findings.
type AnalyzerCount struct {
	Findings int `json:"findings"`
	Allowed  int `json:"allowed,omitempty"`
}

// Summarize folds a run's findings into a Coverage record.
func Summarize(ds []Diagnostic) Coverage {
	c := Coverage{ByAnalyzer: map[string]AnalyzerCount{}}
	for _, a := range Analyzers() {
		c.Analyzers++
		c.Names = append(c.Names, a.Name)
	}
	sort.Strings(c.Names)
	for _, d := range ds {
		ac := c.ByAnalyzer[d.Analyzer]
		if d.Suppressed {
			c.Allowed++
			ac.Allowed++
		} else {
			c.Findings++
			ac.Findings++
		}
		c.ByAnalyzer[d.Analyzer] = ac
	}
	return c
}
