package core

import (
	"context"
	"testing"
	"time"

	"iobt/internal/attack"
	"iobt/internal/fault"
	"iobt/internal/geo"
)

// TestHandlerRegistrationOnce is the regression test for the old
// hierarchyLoop behavior that re-registered sink and detector handlers
// on every incident: registration must happen at Start (and on
// composite changes), not per message.
func TestHandlerRegistrationOnce(t *testing.T) {
	w := testWorld(t, 41)
	defer w.Stop()
	m := testMission(CommandHierarchy)
	m.ReliableOrders = true
	r := NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	after30s := r.rel.Registrations.Value()
	if after30s == 0 {
		t.Fatal("no handlers registered at all")
	}
	if err := w.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if r.Metrics.Incidents.Value() < 30 {
		t.Fatalf("only %d incidents; the regression needs traffic", r.Metrics.Incidents.Value())
	}
	// A calm mission (no composite churn) must not register anything new
	// after warm-up, no matter how many incidents flow.
	if got := r.rel.Registrations.Value(); got != after30s {
		t.Errorf("registrations grew from %d to %d across %d incidents; handlers churned",
			after30s, got, r.Metrics.Incidents.Value())
	}
}

// TestCommandFallbackAndRestore drives the command-continuity reflex:
// a total jam makes every order exchange fail, the runtime falls back
// from hierarchy to intent, and when the jam lifts the hierarchy is
// restored.
func TestCommandFallbackAndRestore(t *testing.T) {
	w := testWorld(t, 42)
	defer w.Stop()
	m := testMission(CommandHierarchy)
	m.ReliableOrders = true
	m.Degradation = true
	r := NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Total communication blackout from 1:00 to 3:00.
	w.Jam.Add(attack.Jammer{
		Area:      geo.Circle{Center: geo.Point{X: 750, Y: 750}, Radius: 2000},
		Intensity: 1,
		From:      time.Minute,
		Until:     3 * time.Minute,
	})
	if err := w.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	met := &r.Metrics
	if met.Undeliverable.Value() == 0 {
		t.Error("blackout produced no undeliverable commands; silent loss is back")
	}
	if met.Fallbacks.Value() == 0 {
		t.Error("no command-continuity fallback under total blackout")
	}
	if met.Restores.Value() == 0 {
		t.Error("hierarchy not restored after the jam lifted")
	}
	if r.fellBack {
		t.Error("still fallen back two minutes after the jam lifted")
	}
	if met.SuccessRate() < 0.3 {
		t.Errorf("success %.2f with reflexes; fallback should keep the mission alive",
			met.SuccessRate())
	}
}

// TestDegradationDoublesStandardPlanSuccess pins the acceptance
// criterion: under the standard fault plan (partition + map-wide jam
// wave + 1/3 kill wave + command-post loss) the mission with
// degradation reflexes achieves at least twice the success rate of the
// same mission with them disabled.
func TestDegradationDoublesStandardPlanSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two six-minute missions")
	}
	run := func(degrade bool) float64 {
		w := testWorld(t, 43)
		defer w.Stop()
		m := testMission(CommandHierarchy)
		m.ReliableOrders = true
		m.Degradation = degrade
		r := NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			t.Fatalf("synthesize: %v", err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		if _, err := fault.Run(context.Background(), w.FaultTarget(r), fault.StandardPlan(1500), 6*time.Minute); err != nil {
			t.Fatal(err)
		}
		return r.Metrics.SuccessRate()
	}
	withReflex := run(true)
	withoutReflex := run(false)
	if withReflex < 2*withoutReflex {
		t.Errorf("reflex success %.2f < 2x no-reflex %.2f", withReflex, withoutReflex)
	}
}

// TestCoverageRelaxationWhenPoolExhausted: when repair cannot restore
// the goal from the surviving pool, the goal is relaxed stepwise and
// recorded, instead of the old silent keep-limping.
func TestCoverageRelaxationWhenPoolExhausted(t *testing.T) {
	w := testWorld(t, 44)
	defer w.Stop()
	m := testMission(CommandIntent)
	m.Degradation = true
	r := NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Annihilate the composite and nearly the whole population: the
	// pool cannot meet the original goal again.
	w.Eng.Schedule(time.Minute, "annihilate", func() {
		kept := 0
		for _, a := range w.Pop.All() {
			if !a.Alive() {
				continue
			}
			if kept < 10 {
				kept++
				continue
			}
			w.Pop.Kill(a.ID)
		}
		w.Net.Refresh()
	})
	if err := w.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if r.Metrics.Relaxations.Value() == 0 {
		t.Error("pool exhaustion triggered no coverage relaxation")
	}
	if r.Health() == Healthy {
		t.Error("mission reports healthy after losing nearly every asset")
	}
}

// TestHealthStateTransitions checks the state machine surfaces
// degradation and recovery.
func TestHealthStateTransitions(t *testing.T) {
	w := testWorld(t, 45)
	defer w.Stop()
	m := testMission(CommandHierarchy)
	m.ReliableOrders = true
	m.Degradation = true
	r := NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if r.Health() != Healthy {
		t.Fatalf("initial health = %v", r.Health())
	}
	sawDegraded := false
	w.Eng.Every(time.Second, "probe", func() {
		if r.Health() == Degraded {
			sawDegraded = true
		}
	})
	w.Jam.Add(attack.Jammer{
		Area:      geo.Circle{Center: geo.Point{X: 750, Y: 750}, Radius: 2000},
		Intensity: 1,
		From:      30 * time.Second,
		Until:     2 * time.Minute,
	})
	if err := w.Run(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if !sawDegraded {
		t.Error("blackout never surfaced as Degraded health")
	}
	if r.Metrics.HealthChanges.Value() == 0 {
		t.Error("no health transitions recorded")
	}
	if r.Health() != Healthy {
		t.Errorf("health %v after recovery window, want healthy", r.Health())
	}
}
