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
	addField := func(kv string) string { return strings.Replace(valid, " track=", " "+kv+" track=", 1) }
	for _, src := range []string{setField("terrain", ""), setField("command", ""),
		addField("levels=15 coverage=1 redundancy=16")} {
		if _, err := ParseScenario(src); err != nil {
			t.Errorf("scenario rejected: %v\n%s", err, src)
		}
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
		{"1ns checkpoint", setField("checkpoint", "1ns"), `field "checkpoint=1ns": must be 0 or at least 1s`},
		{"sub-second checkpoint", setField("checkpoint", "999ms"), `field "checkpoint=999ms": must be 0 or at least 1s`},
		{"negative checkpoint", setField("checkpoint", "-1s"), `field "checkpoint=-1s": must be 0 or at least 1s`},
		{"absurd assets", setField("assets", "100001"), `field "assets=100001": must be in [0, 100000]`},
		{"negative assets", setField("assets", "-1"), `field "assets=-1": must be in [0, 100000]`},
		{"misspelt terrain", setField("terrain", "urbn"), `field "terrain=urbn": must be one of open, urban, sparse`},
		{"misspelt command", setField("command", "hierachy"), `field "command=hierachy": must be one of intent, hierarchy`},
		{"levels past the deadline", addField("levels=16"), `field "levels=16": must be in [0, 15]`},
		{"negative levels", addField("levels=-1"), `field "levels=-1": must be in [0, 15]`},
		{"coverage over 1", addField("coverage=1.5"), `field "coverage=1.5": must be a finite number in [0, 1]`},
		{"NaN coverage", addField("coverage=NaN"), `field "coverage=NaN": must be a finite number`},
		{"absurd redundancy", addField("redundancy=17"), `field "redundancy=17": must be in [0, 16]`},
		{"negative redundancy", addField("redundancy=-1"), `field "redundancy=-1": must be in [0, 16]`},
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

// testIntent is an intent section: a mission in the intent DSL.
const testIntent = "mission \"t\"\narea (200,200)-(1000,1000)\ncover 40%\ncommand intent\nrate 10/min\n"

// TestScenarioIntentSection pins the intent section: it runs from its
// mission line to the plan line, is held to the key line's bounds, and
// leaves the key line no mission keys of its own.
func TestScenarioIntentSection(t *testing.T) {
	const key = "scenario v1\nseed=1 assets=200 size=1500 terrain=open reliable=false degrade=false checkpoint=0s horizon=1m0s track=false\n"
	const plan = "plan p\nkill at=30s frac=0.2 of=composite\n"
	s, err := ParseScenario(key + "\n# leading comment\n" + testIntent + plan)
	if err != nil {
		t.Fatal(err)
	}
	if s.Intent != strings.TrimSpace(testIntent) || s.Plan == nil || len(s.Plan.Faults) != 1 {
		t.Fatalf("intent %q, plan %v", s.Intent, s.Plan)
	}
	if got := s.String(); got != key+testIntent+plan {
		t.Fatalf("String drops the section or the plan:\n%s", got)
	}
	mission := func(clauses string) string { return key + "mission \"t\"\narea (0,0)-(10,10)\n" + clauses + "\n" }
	cases := []struct {
		name, src, wantErr string
	}{
		{"levels past the deadline", mission("command hierarchy levels 16"), "levels 16 must be in [0, 15]"},
		{"negative levels", mission("command hierarchy levels -1"), "levels -1 must be in [0, 15]"},
		{"absurd rate", mission("rate 6001/min"), "rate 6001 must be at most 6000"},
		{"absurd redundancy", mission("cover 50% x17"), "redundancy 17 must be at most 16"},
		{"NaN corner", key + "mission \"t\"\narea (NaN,200)-(1000,1000)\n", "want a finite number"},
		{"no area", key + "mission \"t\"\ncover 40%\n", "missing mandatory 'area' clause"},
		{"fault without a plan line", mission("kill at=30s frac=0.2 of=composite"), `unknown keyword "kill"`},
		{"command on the key line", strings.Replace(key, " reliable=", " command=intent reliable=", 1) + testIntent,
			"an intent section states the mission"},
		{"rate on the key line", strings.Replace(key, " horizon=", " rate=10 horizon=", 1) + testIntent,
			"an intent section states the mission"},
		{"coverage on the key line", strings.Replace(key, " horizon=", " coverage=0.5 horizon=", 1) + testIntent,
			"an intent section states the mission"},
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
