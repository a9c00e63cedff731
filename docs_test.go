package iobt

import (
	"os"
	"testing"
)

// TestDocBudgets holds the prose budgets of ROADMAP item 9: PERF.md
// keeps only the live designs' evidence, and DESIGN.md may shrink but
// not grow past its size when the budget was set. A section that needs
// room replaces the text of the design it supersedes.
func TestDocBudgets(t *testing.T) {
	for _, doc := range []struct {
		name  string
		bytes int64
	}{
		{"PERF.md", 25_000},
		{"DESIGN.md", 71_775},
	} {
		fi, err := os.Stat(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.bytes {
			t.Errorf("%s is %d bytes, over its %d-byte budget", doc.name, fi.Size(), doc.bytes)
		}
	}
}
