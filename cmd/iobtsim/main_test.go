package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"iobt/internal/core"
	"iobt/internal/verify"
)

func TestRunBadArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad terrain", []string{"-terrain", "lunar"}, `field "terrain=lunar": must be one of open, urban, sparse`},
		{"bad command", []string{"-command", "anarchy"}, `field "command=anarchy": must be one of intent, hierarchy`},
		{"bad flag", []string{"-nope"}, "flag provided"},
		{"missing spec", []string{"-spec", "/nonexistent/x.spec"}, "read spec"},
		{"zero minutes", []string{"-minutes", "0"}, "-minutes must be positive"},
		{"negative minutes", []string{"-minutes", "-2"}, "-minutes must be positive"},
		{"negative minutes sharded", []string{"-minutes", "-2", "-shards", "2"}, "-minutes must be positive"},
		{"unrepresentable minutes", []string{"-minutes", "153722868"}, "-minutes must be positive and at most 153722867"},
		{"unrepresentable minutes sharded", []string{"-minutes", "153722868", "-shards", "2"}, "-minutes must be positive and at most 153722867"},
		{"NaN rate", []string{"-rate", "NaN"}, "-rate must be"},
		{"negative rate", []string{"-rate", "-3"}, "-rate must be"},
		{"zero size", []string{"-size", "0"}, "-size must be"},
		{"infinite size", []string{"-size", "+Inf"}, "-size must be"},
		{"zero assets", []string{"-assets", "0"}, "-assets must be positive"},
		{"negative shards", []string{"-shards", "-1"}, "-shards must be"},
		{"negative checkpoint", []string{"-checkpoint", "-1s"}, "-checkpoint must be"},
		{"1ns checkpoint", []string{"-checkpoint", "1ns"}, "-checkpoint must be"},
		{"faults sharded", []string{"-shards", "2", "-faults", "/nonexistent"}, "-faults has no effect with -shards"},
		{"spec sharded", []string{"-shards", "2", "-spec", "/nonexistent"}, "-spec has no effect with -shards"},
		{"command sharded", []string{"-shards", "2", "-command", "anarchy"}, "-command has no effect with -shards"},
		{"default value sharded", []string{"-shards", "2", "-terrain", "open"}, "-terrain has no effect with -shards"},
		{"every unread flag sharded", []string{"-shards", "2", "-faults", "/nonexistent", "-spec", "/nonexistent",
			"-command", "anarchy"}, "-command has no effect with -shards"},
		{"assets over the scenario bound", []string{"-assets", "100001"}, `field "assets=100001": must be in [0, 100000]`},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestRunShortMission(t *testing.T) {
	if err := run([]string{"-minutes", "1", "-assets", "200", "-rate", "10"}); err != nil {
		t.Fatalf("short mission: %v", err)
	}
}

// testSpec is an intent-DSL mission for -spec.
const testSpec = "mission \"t\"\narea (200,200)-(1000,1000)\ncover 40%\ncommand intent\nrate 10/min\n"

func TestRunWithSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "m.spec")
	if err := os.WriteFile(spec, []byte(testSpec), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-minutes", "1", "-assets", "200", "-spec", spec}); err != nil {
		t.Fatalf("spec mission: %v", err)
	}
	// A malformed spec surfaces the parse error.
	bad := filepath.Join(dir, "bad.spec")
	_ = os.WriteFile(bad, []byte("cover 40%"), 0o600)
	if err := run([]string{"-spec", bad}); err == nil {
		t.Fatal("malformed spec accepted")
	}
}

// TestRunGossipOverlay pins the -gossip path: the COP replication
// overlay runs under the full invariant registry (gossip conservation,
// picture monotonicity) and a violation would fail the run via -verify.
func TestRunGossipOverlay(t *testing.T) {
	if err := run([]string{"-minutes", "1", "-assets", "200", "-rate", "10", "-gossip", "-verify"}); err != nil {
		t.Fatalf("gossip mission: %v", err)
	}
}

// TestRunGossipWithHealPlan drives the partition/heal DSL verbs through
// the CLI with the overlay armed: the unbounded cut must not trip any
// invariant, and the heal must let the run complete cleanly.
func TestRunGossipWithHealPlan(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "heal.txt")
	content := "plan heal\npartition at=10s x=750\nheal at=40s\n"
	if err := os.WriteFile(plan, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-minutes", "1", "-assets", "200", "-rate", "10",
		"-gossip", "-verify", "-faults", plan}); err != nil {
		t.Fatalf("gossip mission under heal plan: %v", err)
	}
}

// TestVerifyViolationExitBehavior pins the -verify exit contract: an
// invariant violation must surface as errVerification and exit code 2 —
// in the plain path and in the fault-plan path, where the harness
// drives the check cadence — while the same violation without -verify
// is reported but does not fail the run.
func TestVerifyViolationExitBehavior(t *testing.T) {
	calls := 0
	testExtraInvariants = []verify.InvariantMaker{func(*core.World, *core.Runtime) verify.Invariant {
		return verify.Invariant{Name: "test.always-fails", Check: func() error {
			calls++
			return fmt.Errorf("forced violation (check %d)", calls)
		}}
	}}
	defer func() { testExtraInvariants = nil }()

	base := []string{"-minutes", "1", "-assets", "200", "-rate", "10"}

	// Without -verify: reported, but exit 0.
	if err := run(base); err != nil {
		t.Fatalf("violation without -verify failed the run: %v", err)
	}

	// Plain path with -verify: errVerification, exit code 2.
	err := run(append(base, "-verify"))
	if !errors.Is(err, errVerification) {
		t.Fatalf("plain -verify error = %v, want errVerification", err)
	}
	if exitCode(err) != 2 {
		t.Errorf("exit code = %d, want 2", exitCode(err))
	}

	// Fault-plan path with -verify: the harness cadence (plus the final
	// horizon sweep) must reach the same non-zero exit.
	err = run(append(base, "-faults", "standard", "-verify"))
	if !errors.Is(err, errVerification) {
		t.Fatalf("fault-plan -verify error = %v, want errVerification", err)
	}
	if exitCode(err) != 2 {
		t.Errorf("fault-plan exit code = %d, want 2", exitCode(err))
	}

	// Non-verification failures keep exit code 1.
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Errorf("generic error exit code = %d, want 1", got)
	}
}

// runOutput runs iobtsim with args and returns what it printed.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("iobtsim %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFlagFingerprints pins the fingerprints iobtsim printed when it
// built its missions by hand, flag set by flag, and holds the scenario
// text it prints to the run: verify.Run of that text, parsed, gives the
// same fingerprint.
func TestFlagFingerprints(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "m.spec")
	if err := os.WriteFile(spec, []byte(testSpec), 0o600); err != nil {
		t.Fatal(err)
	}
	seed3 := []string{"-seed", "3", "-assets", "300"}
	h3 := slices.Concat(seed3, []string{"-minutes", "3", "-command", "hierarchy"})
	h10 := slices.Concat(seed3, []string{"-minutes", "10", "-command", "hierarchy"})
	standard := []string{"-command", "hierarchy", "-reliable", "-checkpoint", "15s", "-faults", "standard"}
	cases := []struct {
		args []string
		want string
	}{
		{slices.Concat(seed3, []string{"-minutes", "2"}), "1fe73091eda3fb98"},
		{h3, "a45c6337c3f014e4"},
		{slices.Concat(h3, []string{"-terrain", "urban"}), "c266efbd79350957"},
		{slices.Concat(h3, []string{"-jam"}), "f3377013d6ecd196"},
		{slices.Concat(h3, []string{"-gossip", "-verify"}), "01342d0f1ed1161d"},
		{slices.Concat(h3, []string{"-gossip", "-verify", "-churn", "-jam"}), "531331a1b1cadc12"},
		{h10, "097beac1961d6282"},
		{slices.Concat(h10, []string{"-jam"}), "8669c364bb3e3c92"},
		{slices.Concat(h10, []string{"-churn"}), "f04bf22ab57fc4f3"},
		{slices.Concat(seed3, []string{"-minutes", "2"}, standard), "3e3895e8ccddc007"},
		{slices.Concat([]string{"-assets", "300", "-minutes", "4", "-verify"}, standard), "90e8d6f07f7bfc99"},
		{[]string{"-minutes", "1", "-assets", "200", "-spec", spec}, "0ef9ee09c2559aa5"},
	}
	fingerprint := regexp.MustCompile(`fingerprint: ([0-9a-f]{16})`)
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		out := runOutput(t, tc.args...)
		m := fingerprint.FindStringSubmatch(out)
		if m == nil || m[1] != tc.want {
			t.Errorf("%s: fingerprint %v, want %s\n%s", name, m, tc.want, out)
			continue
		}
		if slices.Contains(tc.args, "-gossip") && !strings.Contains(out, "verification: 10 invariants") {
			t.Errorf("%s: want the 8 mission and 2 gossip invariants armed\n%s", name, out)
		}
		text, _, _ := strings.Cut(out, "\nmission results")
		s, err := verify.ParseScenario(text)
		if err != nil {
			t.Errorf("%s: printed scenario does not parse: %v\n%s", name, err, text)
			continue
		}
		if got := fmt.Sprintf("%016x", verify.Run(s).Fingerprint); got != tc.want {
			t.Errorf("%s: verify.Run of the printed scenario gives %s, want %s\n%s", name, got, tc.want, text)
		}
	}
}
