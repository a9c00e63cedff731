// Package experiments contains the reproduction harness: one function
// per experiment in DESIGN.md §4 (E1..E18), each returning a Table with
// the rows the corresponding paper claim predicts. cmd/benchtab prints
// them; the root bench_test.go wraps them as testing.B benchmarks.
//
// Every experiment takes a seed (full determinism) and a quick flag
// (smaller workloads for benchmarking loops).
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"iobt/internal/lint"
	"iobt/internal/verify"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries the expected-shape statement from DESIGN.md §5.
	Notes string
	// Verification records the invariant coverage of the runs that
	// produced the table (nil when the experiment armed none), so the
	// committed BENCH_<ID>.json documents how much checking backed the
	// numbers.
	Verification *verify.Summary
	// Static records the iobtlint suite's coverage of the tree that
	// produced the numbers (analyzer count, unsuppressed findings —
	// zero at head — and reasoned waivers). cmd/benchtab attaches it
	// for JSON output; nil elsewhere.
	Static *lint.Coverage
	// Host records the machine that produced the numbers, so scaling
	// columns are self-describing: E18's speedup at 8 shards tracks
	// gomaxprocs, and a ~1× row on a 1-core host is expected, not a
	// regression. cmd/benchtab attaches it for JSON output.
	Host *Host
}

// Host is the benchmark host's parallelism envelope.
type Host struct {
	// GOMAXPROCS is the Go scheduler's processor limit for the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// CPUs is the machine's logical core count.
	CPUs int `json:"cpus"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// CSV renders the table as comma-separated values (header row first),
// for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// JSON renders the table as an indented JSON document — the
// machine-readable form committed as BENCH_<ID>.json so runs can be
// diffed and plotted without re-parsing aligned text.
func (t *Table) JSON() string {
	// The verification block carries both dynamic coverage (armed
	// invariants) and static coverage (the iobtlint suite) when present.
	type verification struct {
		*verify.Summary
		Static *lint.Coverage `json:"static,omitempty"`
	}
	var ver *verification
	if t.Verification != nil || t.Static != nil {
		ver = &verification{Summary: t.Verification, Static: t.Static}
	}
	doc := struct {
		ID           string        `json:"id"`
		Title        string        `json:"title"`
		Host         *Host         `json:"host,omitempty"`
		Header       []string      `json:"header"`
		Rows         [][]string    `json:"rows"`
		Notes        string        `json:"notes,omitempty"`
		Verification *verification `json:"verification,omitempty"`
	}{t.ID, t.Title, t.Host, t.Header, t.Rows, t.Notes, ver}
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		// A table of strings cannot fail to marshal; keep the signature
		// print-friendly anyway.
		return fmt.Sprintf(`{"id":%q,"error":%q}`, t.ID, err)
	}
	return string(b) + "\n"
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "shape: %s\n", t.Notes)
	}
	if t.Verification != nil {
		fmt.Fprintf(&b, "%s\n", t.Verification)
	}
	return b.String()
}

// Experiment is a registry entry.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed int64, quick bool) *Table
}

// All returns the registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "decision-loop: intent vs hierarchy", E1DecisionLoop},
		{"E2", "composition at scale under churn", E2Composition},
		{"E3", "asset discovery methods", E3Discovery},
		{"E4", "adaptive reflexes vs re-synthesis", E4Adaptation},
		{"E5", "command-by-intent game convergence", E5Game},
		{"E6", "Byzantine-resilient distributed learning", E6Learning},
		{"E7", "truth discovery vs voting", E7Truth},
		{"E8", "network tomography", E8Tomography},
		{"E9", "saturation resistance", E9Saturation},
		{"E10", "cost of learning vs topology", E10CostOfLearning},
		{"E11", "continual learning contexts", E11Continual},
		{"E12", "team diversity under modality loss", E12Diversity},
		{"E13", "multi-target tracking continuity", E13Tracking},
		{"E14", "recovery time vs fault intensity", E14Recovery},
		{"E15", "command-post failover: none vs cold vs warm", E15Failover},
		{"E16", "mission service under client flood with worker crashes", E16Service},
		{"E17", "COP dissemination: gossip vs flooding vs BFS", E17Dissemination},
		{"E18", "sharded engine scaling: assets × shards", E18ShardScaling},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
