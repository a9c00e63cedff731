package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCorpusReproducers replays every shrunk-reproducer file under
// testdata/. Each file is a scenario that once violated an invariant
// (or exercised a fixed bug's trigger path); replaying them with the
// full catalogue armed keeps the fixes regression-locked.
//
// The corpus:
//
//	acted-undeliverable-seed45.scn — a delay fault over reliable
//	    hierarchy traffic made one incident resolve twice (counted both
//	    acted and undeliverable); fixed by per-incident terminal
//	    resolution in core.Runtime.
//	warm-failover-seed55.scn — delay + post crash + warm failover: the
//	    requeued ARQ window re-delivers orders that already executed.
//	cold-failover-seed30.scn — repeated post loss + composite kills +
//	    cold failover under tracking.
func TestCorpusReproducers(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files under testdata/")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// Corpus files must declare the schema version this build
			// writes; a format change without re-shrinking the corpus
			// fails here, not with a confusing misparse downstream.
			wantHeader := fmt.Sprintf("scenario v%d", SchemaVersion)
			if header, _, _ := strings.Cut(string(src), "\n"); header != wantHeader {
				t.Fatalf("corpus header %q, want %q; re-shrink this reproducer for the new format", header, wantHeader)
			}
			s, err := ParseScenario(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// The file form must be canonical (String is Parse's inverse).
			if s.String() != string(src) {
				t.Fatalf("corpus file is not canonical:\n%s\nvs\n%s", string(src), s.String())
			}
			out := Run(s)
			if out.Skipped {
				t.Fatal("corpus scenario unsynthesizable")
			}
			if len(out.Violations) > 0 {
				t.Fatalf("corpus scenario violates invariants again: %s", out.Summary)
			}
			t.Logf("%s", out.Summary)
		})
	}
}

// TestScenarioSchemaVersion pins the parser's version gate: files from
// a future (or garbled) format are rejected with a version error, not
// misparsed, and so are numbers no mission can run on.
func TestScenarioSchemaVersion(t *testing.T) {
	valid := Generate(1).String()
	if _, err := ParseScenario(valid); err != nil {
		t.Fatalf("current-version scenario rejected: %v", err)
	}
	head := fmt.Sprintf("scenario v%d", SchemaVersion)
	setField := func(key, val string) string {
		return regexp.MustCompile(key+`=\S+`).ReplaceAllString(valid, key+"="+val)
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"future version",
			strings.Replace(valid, head, fmt.Sprintf("scenario v%d", SchemaVersion+1), 1),
			fmt.Sprintf("schema v%d not supported", SchemaVersion+1)},
		{"no version number", strings.Replace(valid, head, "scenario vX", 1), "not a scenario file"},
		{"missing header", strings.Replace(valid, head+"\n", "", 1), "not a scenario file"},
		{"empty", "", "not a scenario file"},
		{"NaN rate", setField("rate", "NaN"), `field "rate=NaN": must be a finite number`},
		{"absurd rate", setField("rate", "1e300"), `field "rate=1e300": must be a finite number`},
		{"negative rate", setField("rate", "-5"), `field "rate=-5": must be a finite number`},
		{"infinite size", setField("size", "+Inf"), `field "size=+Inf": must be a finite number`},
		{"overflowing size", setField("size", "1e999"), `field "size=1e999"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
