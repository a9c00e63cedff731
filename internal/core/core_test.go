package core

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/trust"
)

// testWorld builds a mid-size world with a dense-enough population for
// composition over a sub-area to be feasible.
func testWorld(t *testing.T, seed int64) *World {
	t.Helper()
	return NewWorld(WorldConfig{
		Seed:    seed,
		Terrain: geo.NewOpenTerrain(1500, 1500),
		Assets:  400,
	})
}

func testMission(cmd CommandModel) Mission {
	m := DefaultMission(geo.NewRect(geo.Point{X: 300, Y: 300}, geo.Point{X: 1200, Y: 1200}))
	m.Goal.CoverageFrac = 0.5
	m.Command = cmd
	m.IncidentsPerMin = 30
	return m
}

func TestWorldConstruction(t *testing.T) {
	w := testWorld(t, 1)
	defer w.Stop()
	if w.Pop.Len() < 300 {
		t.Fatalf("population = %d", w.Pop.Len())
	}
	if w.PickCommandPost() == asset.None {
		t.Fatal("no command post found")
	}
	if err := w.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if w.Eng.Now() != time.Second {
		t.Errorf("clock = %v", w.Eng.Now())
	}
}

func TestWorldDefaults(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 2})
	defer w.Stop()
	if w.Terrain.Kind != geo.TerrainUrban {
		t.Error("default terrain should be urban")
	}
	if w.Pop.Len() == 0 {
		t.Error("default population empty")
	}
}

func TestSynthesizeProducesFeasibleComposite(t *testing.T) {
	w := testWorld(t, 3)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	comp := r.Composite()
	if comp == nil || !comp.Assurance.Feasible {
		t.Fatalf("composite not feasible: %+v", comp)
	}
	if len(comp.Members) == 0 {
		t.Fatal("empty composite")
	}
}

func TestStartWithoutSynthesize(t *testing.T) {
	w := testWorld(t, 4)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Start(); err == nil {
		t.Fatal("Start before Synthesize should fail")
	}
}

func TestIntentMissionRuns(t *testing.T) {
	w := testWorld(t, 5)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := w.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	r.Stop()
	m := &r.Metrics
	if m.Incidents.Value() < 100 {
		t.Fatalf("incidents = %d, want ~150", m.Incidents.Value())
	}
	if m.DetectionRate() < 0.4 {
		t.Errorf("detection rate = %.2f", m.DetectionRate())
	}
	if m.SuccessRate() < 0.4 {
		t.Errorf("success rate = %.2f", m.SuccessRate())
	}
	// Intent decisions are sub-second.
	if m.DecisionLatency.Mean() > 1 {
		t.Errorf("intent decision latency = %.3fs", m.DecisionLatency.Mean())
	}
}

func TestHierarchyMissionSlowerThanIntent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several multi-minute missions")
	}
	latency := func(cmd CommandModel, levels int) (float64, float64) {
		w := testWorld(t, 6)
		defer w.Stop()
		m := testMission(cmd)
		m.HierarchyLevels = levels
		r := NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		if err := r.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		if err := w.Run(5 * time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		r.Stop()
		return r.Metrics.DecisionLatency.Mean(), r.Metrics.SuccessRate()
	}
	intentLat, intentOK := latency(CommandIntent, 3)
	hierLat, hierOK := latency(CommandHierarchy, 3)
	if hierLat < 2*intentLat {
		t.Errorf("hierarchy latency %.2fs not >> intent %.2fs", hierLat, intentLat)
	}
	if hierOK > intentOK {
		t.Errorf("hierarchy success %.2f beats intent %.2f", hierOK, intentOK)
	}
	// Deeper hierarchies are slower still.
	deepLat, _ := latency(CommandHierarchy, 6)
	if deepLat <= hierLat {
		t.Errorf("depth-6 latency %.2fs not above depth-3 %.2fs", deepLat, hierLat)
	}
}

func TestReflexRepairAfterLosses(t *testing.T) {
	w := testWorld(t, 7)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Kill half the composite members mid-mission.
	w.Eng.Schedule(time.Minute, "killwave", func() {
		comp := r.Composite()
		for i, id := range comp.Members {
			if i%2 == 0 {
				w.Pop.Kill(id)
			}
		}
		w.Net.Refresh()
	})
	if err := w.Run(5 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	r.Stop()
	if r.Metrics.Repairs.Value() == 0 {
		t.Error("no reflex repair after killing half the composite")
	}
	// Post-repair composite must be live and feasible-ish.
	live := 0
	for _, id := range r.Composite().Members {
		if a := w.Pop.Get(id); a != nil && a.Alive() {
			live++
		}
	}
	if live == 0 {
		t.Error("repaired composite has no live members")
	}
}

func TestJammingDegradesHierarchyMoreThanIntent(t *testing.T) {
	run := func(cmd CommandModel) float64 {
		w := testWorld(t, 8)
		defer w.Stop()
		m := testMission(cmd)
		r := NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		if err := r.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		// Heavy jamming over the mission area from t=30s: reports cannot
		// reach the command post.
		w.Jam.Add(attack.Jammer{
			Area:      geo.Circle{Center: geo.Point{X: 750, Y: 750}, Radius: 700},
			Intensity: 0.95,
			From:      30 * time.Second,
		})
		if err := w.Run(4 * time.Minute); err != nil {
			t.Fatalf("run: %v", err)
		}
		r.Stop()
		return r.Metrics.SuccessRate()
	}
	intentOK := run(CommandIntent)
	hierOK := run(CommandHierarchy)
	if intentOK <= hierOK {
		t.Errorf("under jamming, intent (%.2f) should beat hierarchy (%.2f)", intentOK, hierOK)
	}
}

func TestChurnWorldStillRuns(t *testing.T) {
	w := NewWorld(WorldConfig{
		Seed:    9,
		Terrain: geo.NewOpenTerrain(1500, 1500),
		Assets:  300,
		Churn:   &asset.ChurnConfig{FailRatePerMin: 0.02, ArriveRatePerMin: 3},
	})
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := w.Run(3 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	r.Stop()
	if w.Churn.Failed() == 0 {
		t.Error("churn inactive")
	}
	if r.Metrics.SuccessRate() == 0 {
		t.Error("mission produced no successes under churn")
	}
}

func TestCommandModelString(t *testing.T) {
	if CommandHierarchy.String() != "hierarchy" || CommandIntent.String() != "intent" {
		t.Error("command model names wrong")
	}
	if CommandModel(0).String() != "unknown" {
		t.Error("zero command model should be unknown")
	}
}

func TestMeshConfigOverride(t *testing.T) {
	mc := mesh.DefaultConfig()
	mc.LossBase = 0
	w := NewWorld(WorldConfig{Seed: 10, Terrain: geo.NewOpenTerrain(500, 500), Assets: 50, Mesh: &mc})
	defer w.Stop()
	if w.Net == nil {
		t.Fatal("nil network")
	}
}

// TestSmokeBlindsVisualComposite is the live E12: smoke over the area
// collapses an all-visual composite's detection but not a diverse one.
// "Not" is what the model says it is: incidents fall uniformly over the
// area and a member detects what is inside its sense range, so the
// diverse composite's detection rate is a binomial draw around the
// coverage its synthesis achieved — 0.43-0.53 for the 0.4 asked here,
// sigma 0.045 over 120 incidents. The old floor of 0.5 sat above that
// mean; seed 31 read 0.57 under math/rand and that was luck. A 32-seed
// sweep measured visual-only 0.00 at every seed and the diverse rate
// within 1.4 sigma of its composite's coverage, median 0.44.
func TestSmokeBlindsVisualComposite(t *testing.T) {
	detectionWith := func(seed int64, modalities asset.Modality) (rate, coverage float64, incidents uint64) {
		eng := sim.NewEngine(seed)
		terr := geo.NewOpenTerrain(1000, 1000)
		pop := asset.NewPopulation(terr)
		rng := eng.Stream("place")
		for i := 0; i < 40; i++ {
			caps := asset.DefaultCaps(asset.ClassSensor)
			caps.Modalities = modalities
			caps.RadioRange = 400
			a := &asset.Asset{Affiliation: asset.Blue, Class: asset.ClassSensor, Caps: caps,
				Online: true, DutyCycle: 1,
				Mobility: &geo.Static{P: geo.Point{X: rng.Uniform(100, 900), Y: rng.Uniform(100, 900)}}}
			a.Energy = caps.EnergyCap
			pop.Add(a)
		}
		w := &World{Eng: eng, Terrain: terr, Pop: pop,
			Net:   mesh.New(eng, pop, terr, mesh.DefaultConfig()),
			Jam:   attack.NewField(eng),
			Smoke: attack.NewObscurants(eng),
			Trust: trustLedger()}
		m := DefaultMission(geo.NewRect(geo.Point{X: 100, Y: 100}, geo.Point{X: 900, Y: 900}))
		m.Goal.CoverageFrac = 0.4
		m.IncidentsPerMin = 60
		r := NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Fatalf("seed %d: synthesize: %v", seed, err)
		}
		// Smoke over the whole map from the start.
		w.Smoke.Add(attack.Obscurant{
			Area:   geo.Circle{Center: geo.Point{X: 500, Y: 500}, Radius: 800},
			Blocks: asset.ModVisual,
		})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		_ = w.Run(2 * time.Minute)
		r.Stop()
		w.Net.Stop()
		return r.Metrics.DetectionRate(), r.comp.Assurance.CoverageFrac, r.Metrics.Incidents.Value()
	}
	const seeds = 16
	rates := make([]float64, 0, seeds)
	for seed := int64(1); seed <= seeds; seed++ {
		if visualOnly, _, _ := detectionWith(seed, asset.ModVisual); visualOnly > 0.05 {
			t.Errorf("seed %d: all-visual composite detected %.2f under smoke; want blind", seed, visualOnly)
		}
		diverse, coverage, n := detectionWith(seed, asset.ModVisual|asset.ModSeismic)
		sigma := math.Sqrt(coverage * (1 - coverage) / float64(n))
		if diverse < coverage-3*sigma {
			t.Errorf("seed %d: diverse composite detected %.2f under smoke, more than 3 sigma (%.3f) under its coverage %.2f",
				seed, diverse, sigma, coverage)
		}
		rates = append(rates, diverse)
	}
	sort.Float64s(rates)
	if median := rates[seeds/2]; median < 0.4 {
		t.Errorf("median diverse detection over %d seeds = %.2f, under the 0.4 coverage the goal asked for", seeds, median)
	}
}

func trustLedger() *trust.Ledger { return trust.NewLedger() }

func TestMetricsZeroDivision(t *testing.T) {
	var m Metrics
	if m.SuccessRate() != 0 || m.DetectionRate() != 0 {
		t.Error("zero-incident rates should be 0")
	}
}

func TestMissionNormalizedDefaults(t *testing.T) {
	m := Mission{}.normalized()
	if m.IncidentDeadline <= 0 || m.HierarchyLevels < 1 || m.IncidentsPerMin <= 0 {
		t.Errorf("defaults not applied: %+v", m)
	}
}

// TestReliableOrdersImproveHierarchySuccess: ARQ recovers decisions a
// lossy channel would drop, at a modest latency cost.
func TestReliableOrdersImproveHierarchySuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paired multi-minute missions")
	}
	run := func(reliable bool) (float64, float64) {
		mc := mesh.DefaultConfig()
		mc.LossBase = 0.5 // harsh channel
		w := NewWorld(WorldConfig{
			Seed:    61,
			Terrain: geo.NewOpenTerrain(1500, 1500),
			Assets:  400,
			Mesh:    &mc,
		})
		defer w.Stop()
		m := testMission(CommandHierarchy)
		m.ReliableOrders = reliable
		r := NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		r.Stop()
		return r.Metrics.SuccessRate(), r.Metrics.DecisionLatency.Mean()
	}
	plainOK, plainLat := run(false)
	arqOK, arqLat := run(true)
	if arqOK <= plainOK {
		t.Errorf("ARQ success %.2f not above best-effort %.2f on lossy channel", arqOK, plainOK)
	}
	if arqLat < plainLat {
		t.Logf("note: ARQ latency %.2fs below plain %.2fs (plain only counts survivors)", arqLat, plainLat)
	}
}

// TestRunContextCancellation pins, on a whole world, the
// cooperative-cancellation contract the mission service relies on
// through fault.Run: a live context behaves like Run, a cancelled one
// aborts between events and surfaces its cause.
func TestRunContextCancellation(t *testing.T) {
	w := testWorld(t, 11)
	defer w.Stop()
	if err := w.Eng.RunContext(context.Background(), time.Second); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if w.Eng.Now() != time.Second {
		t.Errorf("clock = %v after RunContext, want 1s", w.Eng.Now())
	}

	budget := errors.New("budget exhausted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(budget)
	err := w.Eng.RunContext(ctx, time.Minute)
	if !errors.Is(err, budget) {
		t.Fatalf("cancelled RunContext error = %v, want the cancellation cause", err)
	}
	if w.Eng.Now() > 2*time.Second {
		t.Errorf("cancelled run advanced the clock to %v", w.Eng.Now())
	}
}
