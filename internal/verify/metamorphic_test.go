package verify

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/core"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// This file holds the metamorphic properties: differential checks that
// compare two runs related by a transformation that must not change the
// outcome. Each returns nil when the property holds and a diagnosable
// error otherwise.

// randomPool draws a random but structurally valid composition instance
// (mixed modalities, trust spread) from seed.
func randomPool(seed int64) (compose.Requirements, []compose.Candidate) {
	rng := sim.NewRNG(seed).Derive("verify.pool")
	n := 20 + rng.Intn(60)
	mods := []asset.Modality{asset.ModVisual, asset.ModAcoustic, asset.ModThermal}
	pool := make([]compose.Candidate, 0, n)
	for i := 0; i < n; i++ {
		pool = append(pool, compose.Candidate{
			ID:  asset.ID(i),
			Pos: geo.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)},
			Caps: asset.Capabilities{
				Modalities: mods[rng.Intn(len(mods))] | asset.ModVisual,
				SenseRange: rng.Uniform(50, 300),
				RadioRange: rng.Uniform(100, 400),
				Compute:    rng.Uniform(0, 200),
				Bandwidth:  rng.Uniform(0, 1000),
			},
			Trust:       rng.Uniform(0, 1),
			Affiliation: asset.Blue,
		})
	}
	g := compose.Goal{
		Area:         geo.NewRect(geo.Point{}, geo.Point{X: 1000, Y: 1000}),
		CoverageFrac: rng.Uniform(0.2, 0.8),
		MinTrust:     rng.Uniform(0, 0.4),
	}
	return compose.Derive(g), pool
}

// PermutationInvariance checks that assurance evaluation and solver
// feasibility do not depend on the order the candidate pool is listed
// in. Evaluate's coverage, connectivity, risk, and resource totals are
// order-free by construction; MeanTrust is a float sum, so it is
// compared within 1e-9; EstLatency (a BFS from the first member) is
// deliberately excluded.
func PermutationInvariance(seed int64) error {
	req, pool := randomPool(seed)
	rng := sim.NewRNG(seed).Derive("verify.perm")

	perm := append([]compose.Candidate(nil), pool...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	a := compose.Evaluate(req, pool)
	b := compose.Evaluate(req, perm)
	if a.Feasible != b.Feasible {
		return fmt.Errorf("permutation changed feasibility: %v vs %v (seed %d)", a.Feasible, b.Feasible, seed)
	}
	if a.CoverageFrac != b.CoverageFrac {
		return fmt.Errorf("permutation changed coverage: %v vs %v (seed %d)", a.CoverageFrac, b.CoverageFrac, seed)
	}
	if a.Connected != b.Connected {
		return fmt.Errorf("permutation changed connectivity: %v vs %v (seed %d)", a.Connected, b.Connected, seed)
	}
	if a.RiskFrac != b.RiskFrac {
		return fmt.Errorf("permutation changed risk: %v vs %v (seed %d)", a.RiskFrac, b.RiskFrac, seed)
	}
	if math.Abs(a.MeanTrust-b.MeanTrust) > 1e-9 {
		return fmt.Errorf("permutation changed mean trust: %v vs %v (seed %d)", a.MeanTrust, b.MeanTrust, seed)
	}
	if math.Abs(a.Compute-b.Compute) > 1e-9 || math.Abs(a.Bandwidth-b.Bandwidth) > 1e-9 {
		return fmt.Errorf("permutation changed resource totals (seed %d)", seed)
	}

	// Solver-level: the greedy solver may pick different members from a
	// permuted pool, but feasibility must agree.
	_, errA := compose.GreedySolver{}.Solve(req, pool)
	_, errB := compose.GreedySolver{}.Solve(req, perm)
	if (errA == nil) != (errB == nil) {
		return fmt.Errorf("permutation changed greedy feasibility: %v vs %v (seed %d)", errA, errB, seed)
	}
	return nil
}

// CadenceIndependence checks that the checkpoint cadence — pure
// bookkeeping while no crash consumes a checkpoint — does not perturb
// the mission: two runs differing only in CheckpointEvery must end with
// identical metric fingerprints.
func CadenceIndependence(seed int64) error {
	base := Generate(seed)
	base.Command = "hierarchy"
	base.Reliable = true
	base.Plan = nil // a crash would legitimately couple outcome to cadence

	fast := base
	fast.Checkpoint = 10 * time.Second
	slow := base
	slow.Checkpoint = 45 * time.Second

	a := Run(fast)
	b := Run(slow)
	if a.Skipped || b.Skipped {
		return nil // sparse world: nothing to compare
	}
	if err := firstViolation(a, b); err != nil {
		return err
	}
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("checkpoint cadence changed outcome: fingerprint %x (10s) vs %x (45s), seed %d",
			a.Fingerprint, b.Fingerprint, seed)
	}
	return nil
}

// RestoreTransparency checks checkpoint/restore transparency: taking a
// checkpoint mid-mission and immediately restoring it must leave the
// run bit-identical to never having done either. Reliable transport is
// excluded: its restore legitimately requeues the in-flight ARQ window.
func RestoreTransparency(seed int64) error {
	base := Generate(seed)
	base.Command = "hierarchy"
	base.Reliable = false
	base.Track = false
	base.Checkpoint = 15 * time.Second
	base.Plan = nil

	plain := Run(base)
	// A probe that silently fails makes the transparency check vacuous:
	// if the restore never happened, fingerprint equality proves
	// nothing. (This code once early-returned on TakeNow's non-nil
	// *Checkpoint result, so the restore never ran, and discarded the
	// RestoreLast error that would have shown it.) Capture the error
	// and report it as a violation.
	var probeErr error
	probed, err := RunAttempt(context.Background(), base, nil, func(w *core.World, r *core.Runtime) error {
		w.Eng.ScheduleAt(base.Horizon/2, "verify.restore-probe", func() {
			r.Checkpoints().TakeNow()
			if err := r.Checkpoints().RestoreLast(); err != nil {
				probeErr = fmt.Errorf("mid-run restore failed: %w (seed %d)", err, seed)
			}
		})
		return nil
	})
	if probeErr != nil {
		return probeErr
	}
	if plain.Skipped || err != nil {
		return nil
	}
	if err := firstViolation(plain, probed); err != nil {
		return err
	}
	if plain.Fingerprint != probed.Fingerprint {
		return fmt.Errorf("mid-run snapshot+restore changed outcome: fingerprint %x vs %x, seed %d",
			plain.Fingerprint, probed.Fingerprint, seed)
	}
	return nil
}

// firstViolation surfaces an invariant violation from either side of a
// differential pair before the fingerprints are compared.
func firstViolation(outcomes ...*Outcome) error {
	for _, o := range outcomes {
		if len(o.Violations) > 0 {
			return fmt.Errorf("invariant violated during differential run: %v", o.Violations[0])
		}
	}
	return nil
}

func TestPermutationInvariance(t *testing.T) {
	n := 30
	if !testing.Short() {
		n = 80
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		if err := PermutationInvariance(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCadenceIndependence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if err := CadenceIndependence(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRestoreTransparency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if err := RestoreTransparency(seed); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayEquivalence(t *testing.T) {
	checked := 0
	for seed := int64(1); checked < 3; seed++ {
		s := Generate(seed)
		if Run(s).Skipped {
			continue
		}
		checked++
		if err := ReplayEquivalence(s); err != nil {
			t.Fatal(err)
		}
	}
}
