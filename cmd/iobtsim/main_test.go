package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iobt/internal/verify"
)

func TestRunBadArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad terrain", []string{"-terrain", "lunar"}, "unknown terrain"},
		{"bad command", []string{"-command", "anarchy"}, "unknown command"},
		{"bad flag", []string{"-nope"}, "flag provided"},
		{"missing spec", []string{"-spec", "/nonexistent/x.spec"}, "read spec"},
		{"zero minutes", []string{"-minutes", "0"}, "-minutes must be positive"},
		{"negative minutes", []string{"-minutes", "-2"}, "-minutes must be positive"},
		{"negative minutes sharded", []string{"-minutes", "-2", "-shards", "2"}, "-minutes must be positive"},
		{"NaN rate", []string{"-rate", "NaN"}, "-rate must be"},
		{"negative rate", []string{"-rate", "-3"}, "-rate must be"},
		{"zero size", []string{"-size", "0"}, "-size must be"},
		{"infinite size", []string{"-size", "+Inf"}, "-size must be"},
		{"zero assets", []string{"-assets", "0"}, "-assets must be positive"},
		{"negative shards", []string{"-shards", "-1"}, "-shards must be"},
		{"negative checkpoint", []string{"-checkpoint", "-1s"}, "-checkpoint must be"},
		{"1ns checkpoint", []string{"-checkpoint", "1ns"}, "-checkpoint must be"},
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

func TestRunWithSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "m.spec")
	content := "mission \"t\"\narea (200,200)-(1000,1000)\ncover 40%\ncommand intent\nrate 10/min\n"
	if err := os.WriteFile(spec, []byte(content), 0o600); err != nil {
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
	testExtraInvariants = func() []verify.Invariant {
		return []verify.Invariant{{Name: "test.always-fails", Check: func() error {
			calls++
			return fmt.Errorf("forced violation (check %d)", calls)
		}}}
	}
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
