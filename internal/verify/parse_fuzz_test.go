package verify

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzParseScenario holds the POST /missions body decoder to the
// contract of the other outside decoders: no input panics it, and an
// accepted scenario's String parses back to an equal scenario and is a
// fixed point of a second parse. The seeds are the reproducer corpus.
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.scn"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus under testdata/: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("scenario v1\nseed=1 assets=80 size=600 terrain=open command=intent rate=10 horizon=1m0s\n")
	f.Add("scenario v1\nseed=2 assets=250 size=1200 terrain=open command=hierarchy reliable=true rate=30 horizon=6m0s" +
		" levels=4 coverage=0.6 redundancy=3\nplan standard x0.50\nkill at=1m30s frac=0.16666666666666666 of=composite\n")
	f.Add("scenario v1\nseed=3 assets=300 size=1500 terrain=open command=hierarchy rate=20 horizon=10m0s levels=3 coverage=0.5 churn=true\n")
	f.Add("scenario v1\nseed=3 assets=300 size=1500 terrain=urban command=hierarchy rate=20 horizon=3m0s gossip=true churn=true\n" +
		"plan jam\njam at=2m0s for=3m0s cx=750 cy=750 r=500 intensity=0.9\n")
	f.Add("scenario v1\nseed=1 assets=200 size=1500 terrain=open horizon=1m0s\n# intent\n" + testIntent +
		"plan p\nkill at=30s frac=0.2 of=composite\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScenario(src)
		if err != nil {
			return
		}
		once := s.String()
		back, err := ParseScenario(once)
		if err != nil {
			t.Fatalf("String does not parse back: %v\nsource: %q\nString: %q", err, src, once)
		}
		if !sameScenario(s, back) {
			t.Fatalf("round trip changed the scenario:\n  %+v\n  %+v\nsource: %q", s, back, src)
		}
		if twice := back.String(); twice != once {
			t.Fatalf("String is not a fixed point:\n  %q\n  %q\nsource: %q", once, twice, src)
		}
	})
}

// sameScenario compares two scenarios field by field, their fault plans
// by name and fault list.
func sameScenario(a, b Scenario) bool {
	pa, pb := a.Plan, b.Plan
	a.Plan, b.Plan = nil, nil
	if a != b || (pa == nil) != (pb == nil) {
		return false
	}
	return pa == nil || pa.Name == pb.Name && slices.Equal(pa.Faults, pb.Faults)
}
