package adapt

import (
	"testing"
	"time"

	"iobt/internal/sim"
)

// TestMonitorLifecycle drives the invariant monitor through boundary
// trajectories: an invariant that never breaks, breaks once and is
// repaired, stays broken (repair retried every tick), and flaps.
func TestMonitorLifecycle(t *testing.T) {
	cases := []struct {
		name string
		// holdsAt reports whether the invariant holds at tick i (0-based).
		holdsAt        func(i int) bool
		ticks          int
		wantViolations uint64
		wantRepairs    uint64
		wantViolated   bool
	}{
		{
			name:    "never-breaks",
			holdsAt: func(int) bool { return true }, ticks: 10,
			wantViolations: 0, wantRepairs: 0, wantViolated: false,
		},
		{
			name:    "breaks-once-then-repaired",
			holdsAt: func(i int) bool { return i != 3 }, ticks: 10,
			wantViolations: 1, wantRepairs: 1, wantViolated: false,
		},
		{
			name:    "stays-broken",
			holdsAt: func(i int) bool { return i < 2 }, ticks: 10,
			wantViolations: 1, wantRepairs: 0, wantViolated: true,
		},
		{
			name:    "flaps",
			holdsAt: func(i int) bool { return i%2 == 0 }, ticks: 10,
			wantViolations: 5, wantRepairs: 4, wantViolated: true,
		},
		{
			name:    "zero-ticks",
			holdsAt: func(int) bool { return false }, ticks: 0,
			wantViolations: 0, wantRepairs: 0, wantViolated: false,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			tick := 0
			repairs := 0
			m := NewMonitor(eng,
				func() bool { return tc.holdsAt(tick) },
				func() { repairs++ })
			for ; tick < tc.ticks; tick++ {
				m.Tick()
			}
			if got := m.Violations.Value(); got != tc.wantViolations {
				t.Errorf("Violations = %d, want %d", got, tc.wantViolations)
			}
			if got := m.Repairs.Value(); got != tc.wantRepairs {
				t.Errorf("Repairs = %d, want %d", got, tc.wantRepairs)
			}
			if m.violated != tc.wantViolated {
				t.Errorf("violated = %v, want %v", m.violated, tc.wantViolated)
			}
			if int(m.Repairs.Value()) != m.RepairTime.N() {
				t.Errorf("RepairTime samples %d != repairs %d", m.RepairTime.N(), m.Repairs.Value())
			}
		})
	}
}

// TestMonitorStartStop checks the scheduling boundaries: the monitor
// checks every five seconds, double Start is a no-op, and Stop halts
// checking.
func TestMonitorStartStop(t *testing.T) {
	eng := sim.NewEngine(1)
	checks := 0
	m := NewMonitor(eng, func() bool { checks++; return true }, nil)
	m.Start()
	m.Start()
	if err := eng.Run(17500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if checks != 3 {
		t.Errorf("checks = %d, want 3 (5s cadence, double Start ignored)", checks)
	}
	m.Stop()
	m.Stop() // idempotent
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if checks != 3 {
		t.Errorf("checks after Stop = %d, want 3", checks)
	}
}

// TestMonitorNilRepair checks a monitor with no repair action still
// tracks violation state.
func TestMonitorNilRepair(t *testing.T) {
	eng := sim.NewEngine(1)
	ok := false
	m := NewMonitor(eng, func() bool { return ok }, nil)
	m.Tick()
	if !m.violated || m.Violations.Value() != 1 {
		t.Fatalf("violation not recorded: violated=%v count=%d", m.violated, m.Violations.Value())
	}
	ok = true
	m.Tick()
	if m.violated || m.Repairs.Value() != 1 {
		t.Fatalf("repair not recorded: violated=%v count=%d", m.violated, m.Repairs.Value())
	}
}

// TestReflexChain covers the subsumption arbitration boundaries: empty
// chain, nil conditions, priority order, one rule per tick, and
// activation counting.
func TestReflexChain(t *testing.T) {
	t.Run("empty-chain", func(t *testing.T) {
		c := NewReflexChain()
		if got := c.Tick(); got != "" {
			t.Errorf("empty chain fired %q", got)
		}
	})

	t.Run("nil-condition-skipped", func(t *testing.T) {
		fired := false
		c := NewReflexChain(
			Rule{Name: "nil-cond", Action: func() { t.Error("nil-condition rule fired") }},
			Rule{Name: "real", Condition: func() bool { return true }, Action: func() { fired = true }},
		)
		if got := c.Tick(); got != "real" {
			t.Errorf("fired %q, want real", got)
		}
		if !fired {
			t.Error("action did not run")
		}
	})

	t.Run("priority-order", func(t *testing.T) {
		var order []string
		high, low := false, true
		c := NewReflexChain(
			Rule{Name: "high", Condition: func() bool { return high },
				Action: func() { order = append(order, "high") }},
			Rule{Name: "low", Condition: func() bool { return low },
				Action: func() { order = append(order, "low") }},
		)
		// Only the low rule's condition holds: it fires.
		if got := c.Tick(); got != "low" {
			t.Errorf("fired %q, want low", got)
		}
		// Both hold: the higher-priority rule wins, one rule per tick.
		high = true
		if got := c.Tick(); got != "high" {
			t.Errorf("fired %q, want high", got)
		}
		if len(order) != 2 || order[0] != "low" || order[1] != "high" {
			t.Errorf("actions ran %v, want [low high]", order)
		}
		if c.Fired["high"] != 1 || c.Fired["low"] != 1 {
			t.Errorf("Fired = %v, want high:1 low:1", c.Fired)
		}
	})

	t.Run("no-rule-applies", func(t *testing.T) {
		c := NewReflexChain(Rule{Name: "never", Condition: func() bool { return false }})
		for i := 0; i < 3; i++ {
			if got := c.Tick(); got != "" {
				t.Errorf("fired %q, want none", got)
			}
		}
		if c.Fired["never"] != 0 {
			t.Errorf("Fired[never] = %d, want 0", c.Fired["never"])
		}
	})
}
