package core_test

import (
	"context"
	"testing"
	"testing/quick"
	"time"

	"iobt/internal/asset"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/verify"
)

// TestChaosMissionInvariants injects a randomized fault plan — jam
// wave, smoke, a kill wave against the composite, plus churn — through
// fault.Run during a mission, and checks that the runtime never panics
// and its metrics stay internally consistent, for many random seeds —
// the paper's "disruptions and failures at different scales" as a
// property test. The invariants are the shared verify catalogue, swept
// every second by the armed registry.
func TestChaosMissionInvariants(t *testing.T) {
	maxCount := 8
	if testing.Short() {
		maxCount = 2
	}
	prop := func(seed int64) bool {
		w := core.NewWorld(core.WorldConfig{
			Seed:    seed,
			Terrain: geo.NewOpenTerrain(1200, 1200),
			Assets:  250,
			Churn:   &asset.ChurnConfig{FailRatePerMin: 0.05, ArriveRatePerMin: 5},
		})
		defer w.Stop()
		m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
		m.Goal.CoverageFrac = 0.4
		m.IncidentsPerMin = 40
		if seed%2 == 0 {
			m.Command = core.CommandHierarchy
			m.ReliableOrders = true
			m.CheckpointEvery = 15 * time.Second
		}
		if seed%4 == 0 {
			m.Degradation = true
		}
		r := core.NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			// Some random worlds are legitimately too sparse; that is
			// not an invariant violation.
			return true
		}
		if err := r.Start(); err != nil {
			return false
		}
		defer r.Stop()

		chaos := w.Eng.Stream("chaos")
		plan := &fault.Plan{Name: "chaos"}
		plan.Add(fault.Fault{
			Kind: fault.JamWave, At: 30 * time.Second, Duration: 60 * time.Second,
			Area:      geo.Circle{Center: w.Terrain.RandomPoint(chaos), Radius: chaos.Uniform(100, 500)},
			Intensity: chaos.Uniform(0.3, 1),
		})
		plan.Add(fault.Fault{
			Kind: fault.Smoke, At: time.Minute,
			Area: geo.Circle{Center: w.Terrain.RandomPoint(chaos), Radius: chaos.Uniform(100, 400)},
		})
		plan.Add(fault.Fault{
			Kind: fault.KillWave, At: 45 * time.Second,
			Fraction: 1.0 / 3, Select: fault.SelectComposite,
		})
		if seed%2 == 0 {
			// Crash the post and promote a successor (alternating warm and
			// cold), so the invariants — message conservation above all —
			// are exercised across the crash/restore boundary.
			plan.Add(fault.Fault{Kind: fault.CrashPost, At: 80 * time.Second})
			plan.Add(fault.Fault{Kind: fault.Failover, At: 85 * time.Second, Warm: seed%4 == 0})
		}

		reg := verify.NewRegistry()
		reg.Add(verify.MissionInvariants(w, r)...)
		reg.Arm(w.Eng, time.Second)
		rep, err := fault.Run(context.Background(), w.FaultTarget(r), plan, 3*time.Minute)
		if err != nil {
			return false
		}
		if len(reg.Violations()) > 0 {
			t.Logf("seed %d: %s%v", seed, rep, reg.Violations())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// TestChaosDeterminism runs the same seeded mission under the same
// fault plan twice and requires identical metrics — fault injection
// must be fully deterministic per seed.
func TestChaosDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64, uint64, uint64) {
		w := core.NewWorld(core.WorldConfig{Seed: 7, Terrain: geo.NewOpenTerrain(1200, 1200), Assets: 250})
		defer w.Stop()
		m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
		m.Goal.CoverageFrac = 0.4
		m.Command = core.CommandHierarchy
		m.ReliableOrders = true
		m.Degradation = true
		m.IncidentsPerMin = 30
		r := core.NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Skip("sparse world")
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		if _, err := fault.Run(context.Background(), w.FaultTarget(r), fault.StandardPlan(1200), 3*time.Minute); err != nil {
			t.Fatal(err)
		}
		met := &r.Metrics
		return met.Incidents.Value(), met.Detected.Value(), met.OnTime.Value(),
			met.Undeliverable.Value(), met.Fallbacks.Value()
	}
	i1, d1, o1, u1, f1 := run()
	i2, d2, o2, u2, f2 := run()
	if i1 != i2 || d1 != d2 || o1 != o2 || u1 != u2 || f1 != f2 {
		t.Errorf("same seed diverged: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			i1, d1, o1, u1, f1, i2, d2, o2, u2, f2)
	}
}
