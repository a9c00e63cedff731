package adapt

import (
	"math"
	"testing"
	"time"

	"iobt/internal/sim"
)

func TestMonitorDetectsAndRepairs(t *testing.T) {
	eng := sim.NewEngine(1)
	healthy := true
	repairCalled := 0
	m := NewMonitor(eng, func() bool { return healthy }, func() { repairCalled++ })
	m.Start()
	m.Start() // idempotent second start

	eng.Schedule(5*time.Second+time.Millisecond, "break", func() { healthy = false })
	eng.Schedule(10*time.Second+time.Millisecond, "fix", func() { healthy = true })
	_ = eng.Run(20 * time.Second)

	if m.Violations.Value() != 1 {
		t.Errorf("violations = %d, want 1", m.Violations.Value())
	}
	if m.Repairs.Value() != 1 {
		t.Errorf("repairs = %d, want 1", m.Repairs.Value())
	}
	if repairCalled == 0 {
		t.Error("repair action never invoked")
	}
	if m.RepairTime.N() != 1 || m.RepairTime.Mean() < 4 || m.RepairTime.Mean() > 6 {
		t.Errorf("repair time = %v, want ~5s", m.RepairTime.Mean())
	}
	if m.violated {
		t.Error("monitor still violated after fix")
	}
	m.Stop()
}

func TestMonitorRepeatedRepairAttempts(t *testing.T) {
	eng := sim.NewEngine(2)
	attempts := 0
	m := NewMonitor(eng, func() bool { return false }, func() { attempts++ })
	m.Start()
	_ = eng.Run(25 * time.Second)
	if attempts < 4 {
		t.Errorf("repair attempts = %d, want retries while down", attempts)
	}
	if m.Violations.Value() != 1 {
		t.Errorf("violations = %d, want 1 (single episode)", m.Violations.Value())
	}
}

func TestReflexChainPriority(t *testing.T) {
	var fired []string
	mk := func(name string, cond bool) Rule {
		return Rule{Name: name, Condition: func() bool { return cond },
			Action: func() { fired = append(fired, name) }}
	}
	c := NewReflexChain(mk("high", false), mk("mid", true), mk("low", true))
	if got := c.Tick(); got != "mid" {
		t.Errorf("fired %q, want mid (priority order)", got)
	}
	if len(fired) != 1 {
		t.Errorf("fired %v, want exactly one rule per tick", fired)
	}
	if c.Fired["mid"] != 1 {
		t.Error("Fired count wrong")
	}
}

func TestReflexChainNoCondition(t *testing.T) {
	c := NewReflexChain(Rule{Name: "broken"}, Rule{Name: "never", Condition: func() bool { return false }})
	if got := c.Tick(); got != "" {
		t.Errorf("fired %q, want none", got)
	}
}

// controller is NewController moved to another setpoint, initial knob,
// upper bound and adaptation rate.
func controller(setpoint, knob, max, rate float64) *Controller {
	c := NewController()
	c.Setpoint, c.Knob, c.Max, c.rate = setpoint, knob, max, rate
	return c
}

func TestControllerConvergesUnknownGain(t *testing.T) {
	// Plant: output = 3.7 * knob (gain unknown to controller).
	c := controller(50, 1, 100, 0.8)
	out := 0.0
	for i := 0; i < 60; i++ {
		out = 3.7 * c.Knob
		c.Observe(out)
	}
	if math.Abs(out-50) > 2.5 {
		t.Errorf("output = %.2f, want within 5%% of 50", out)
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	c := controller(1e9, 5, 10, 1) // unreachable setpoint
	for i := 0; i < 100; i++ {
		c.Observe(c.Knob) // gain 1
		if c.Knob < 0 || c.Knob > 10 {
			t.Fatalf("knob out of bounds: %v", c.Knob)
		}
	}
	if c.Knob != 10 {
		t.Errorf("knob = %v, want pinned at max", c.Knob)
	}
}

func TestControllerNegativeGainPlant(t *testing.T) {
	// Plant: output decreases as knob rises: out = 100 - 2*knob.
	c := controller(40, 10, 60, 0.6)
	out := 0.0
	for i := 0; i < 80; i++ {
		out = 100 - 2*c.Knob
		c.Observe(out)
	}
	if math.Abs(out-40) > 4 {
		t.Errorf("output = %.2f, want ~40 (negative-gain plant)", out)
	}
}

// TestUncoordinatedOscillation reproduces the paper's [12] pathology:
// two controllers sharing one plant fight when uncoordinated and settle
// when coordinated.
func TestUncoordinatedOscillation(t *testing.T) {
	// Two fixed-gain controllers each believe they alone drive the
	// shared plant (out = k1 + k2): each computes the full correction,
	// so the combined move is double and the system oscillates forever.
	run := func(coordinated bool) (tailErr float64) {
		c1 := NewController()
		c2 := NewController()
		c1.FixedGain = true
		c2.FixedGain = true
		var co *Coordinator
		if coordinated {
			co = NewCoordinator(c1, c2)
		}
		for i := 0; i < 60; i++ {
			out := c1.Knob + c2.Knob
			if coordinated {
				co.Observe(out)
			} else {
				c1.Observe(out)
				c2.Observe(out)
			}
			if i >= 40 {
				tailErr += math.Abs(12 - (c1.Knob + c2.Knob))
			}
		}
		return tailErr
	}
	unco := run(false)
	coord := run(true)
	if unco < 10 {
		t.Errorf("uncoordinated fixed-gain controllers did not oscillate: tail error %.2f", unco)
	}
	if coord >= unco {
		t.Errorf("coordination did not help: tail error %.2f (coord) vs %.2f (unco)", coord, unco)
	}
	if coord > 5 {
		t.Errorf("coordinated tail error = %.2f, want near zero", coord)
	}
}

// TestAdaptiveGainSelfCorrects is the ablation: with online gain
// estimation enabled (the default), even uncoordinated controllers learn
// the combined plant gain and settle — the "unified theory of self-aware
// adaptation" fix.
func TestAdaptiveGainSelfCorrects(t *testing.T) {
	c1 := NewController()
	c2 := NewController()
	tailErr := 0.0
	for i := 0; i < 60; i++ {
		out := c1.Knob + c2.Knob
		c1.Observe(out)
		c2.Observe(out)
		if i >= 40 {
			tailErr += math.Abs(12 - (c1.Knob + c2.Knob))
		}
	}
	if tailErr > 10 {
		t.Errorf("adaptive-gain controllers did not settle: tail error %.2f", tailErr)
	}
}

func TestCoordinatorEmpty(t *testing.T) {
	co := NewCoordinator()
	co.Observe(5) // must not panic
}
