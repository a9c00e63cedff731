package core_test

import (
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/verify"
)

// runStandard runs the reference mission (hierarchy + ARQ, degradation
// reflexes on) under the standard fault plan with the shared verify
// catalogue armed, and returns the runtime.
func runStandard(t *testing.T, seed int64, journal *checkpoint.Journal) *core.Runtime {
	t.Helper()
	w := core.NewWorld(core.WorldConfig{Seed: seed, Terrain: geo.NewOpenTerrain(1200, 1200), Assets: 250})
	defer w.Stop()
	m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
	m.Goal.CoverageFrac = 0.4
	m.Command = core.CommandHierarchy
	m.ReliableOrders = true
	m.Degradation = true
	m.IncidentsPerMin = 30
	m.CheckpointEvery = 15 * time.Second
	r := core.NewRuntime(w, m)
	r.SetJournal(journal)
	if err := r.Synthesize(); err != nil {
		t.Skip("sparse world")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	reg := verify.NewRegistry()
	reg.Add(verify.MissionInvariants(w, r)...)
	reg.Arm(w.Eng, time.Second)
	if _, err := fault.Run(w.FaultTarget(r), fault.StandardPlan(1200), 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(reg.Violations()) > 0 {
		t.Fatalf("invariant violations: %v", reg.Violations())
	}
	return r
}

// TestGoldenDeterminism is the golden determinism regression: the
// standard fault plan run twice at the same seed must produce
// bit-identical mission metrics — not just a few counters, the full
// Fingerprint (every counter plus the latency/repair series shapes).
func TestGoldenDeterminism(t *testing.T) {
	f1 := runStandard(t, 42, nil).Metrics.Fingerprint()
	f2 := runStandard(t, 42, nil).Metrics.Fingerprint()
	if f1 != f2 {
		t.Errorf("same-seed standard-plan fingerprints differ: %016x vs %016x", f1, f2)
	}
	// And absolutely: two runs that agree can both have moved. Captured
	// when sim.RNG's source became the in-tree SplitMix64 — the last
	// re-pin. The neighbour table is a function of current state alone
	// and the generator is a file in this repository, so an optimisation
	// has neither ordering nor stream position to cite for moving this.
	if want := uint64(0xcc5be75a50032d22); f1 != want {
		t.Errorf("standard-plan fingerprint %#016x, want %#016x", f1, want)
	}
}

// TestReplayVerifyStandardPlan replays the standard-plan mission from
// its decision journal and requires zero divergence.
func TestReplayVerifyStandardPlan(t *testing.T) {
	plan := fault.StandardPlan(1200)
	run := func(j *checkpoint.Journal) { runStandard(t, 42, j) }
	if div := checkpoint.VerifyEquivalence(42, plan.String(), run, run); div != nil {
		t.Errorf("replay diverged at line %d:\n  run A: %s\n  run B: %s", div.Index, div.A, div.B)
	}
}
