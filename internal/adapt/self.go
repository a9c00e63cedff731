// Package adapt implements the paper's Challenge 2 (§IV): self-aware
// adaptation. It provides the machinery the experiments exercise:
// invariant monitors with reflex repair, a self-stabilizing spanning
// tree for in-network aggregation, adaptive controllers, and a
// coordination layer that damps the destructive interference of
// uncoordinated adaptive components (the paper's reference [12]).
package adapt

import (
	"time"

	"iobt/internal/sim"
)

// Monitor watches an invariant — the mission's coverage — and triggers
// reflexive repair on violation, recording detection and repair
// latencies ("akin to instinctual reflexes", §II).
type Monitor struct {
	// Check returns true while the invariant holds.
	Check func() bool
	// Repair attempts to restore the invariant.
	Repair func()

	eng      *sim.Engine
	ticker   *sim.Ticker
	violated bool
	downAt   time.Duration

	// Violations counts transitions from holding to violated.
	Violations sim.Counter
	// Repairs counts transitions back to holding.
	Repairs sim.Counter
	// RepairTime records seconds from violation to restoration.
	RepairTime sim.Series
}

// monitorEvery is the monitor's check cadence.
const monitorEvery = 5 * time.Second

// NewMonitor returns an unstarted monitor on eng.
func NewMonitor(eng *sim.Engine, check func() bool, repair func()) *Monitor {
	return &Monitor{Check: check, Repair: repair, eng: eng}
}

// Start begins checking every monitorEvery.
func (m *Monitor) Start() {
	if m.ticker != nil {
		return
	}
	m.ticker = m.eng.Every(monitorEvery, "monitor.coverage", m.Tick)
}

// Stop halts checking.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Tick performs one check/repair cycle synchronously.
func (m *Monitor) Tick() {
	ok := m.Check()
	switch {
	case ok && m.violated:
		m.violated = false
		m.Repairs.Inc()
		m.RepairTime.AddDuration(m.eng.Now() - m.downAt)
	case !ok && !m.violated:
		m.violated = true
		m.downAt = m.eng.Now()
		m.Violations.Inc()
		if m.Repair != nil {
			m.Repair()
		}
	case !ok && m.violated:
		// Still down: keep trying.
		if m.Repair != nil {
			m.Repair()
		}
	}
}

// Rule is one reflex: when Condition holds, Action fires. Rules are
// evaluated in priority order; at most one rule fires per tick
// (subsumption-style arbitration keeps reflexes from fighting).
type Rule struct {
	Name      string
	Condition func() bool
	Action    func()
}

// ReflexChain sequences reflex rules (paper §IV: "complex behavior can
// be attained through the combined action of individual reflexes that
// have been chained together").
type ReflexChain struct {
	rules []Rule
	// Fired counts rule activations by rule name order.
	Fired map[string]int
}

// NewReflexChain returns a chain over rules (highest priority first).
func NewReflexChain(rules ...Rule) *ReflexChain {
	rs := make([]Rule, len(rules))
	copy(rs, rules)
	return &ReflexChain{rules: rs, Fired: make(map[string]int, len(rules))}
}

// Tick evaluates rules in order and fires the first whose condition
// holds. It returns the fired rule's name, or "".
func (c *ReflexChain) Tick() string {
	for _, r := range c.rules {
		if r.Condition != nil && r.Condition() {
			if r.Action != nil {
				r.Action()
			}
			c.Fired[r.Name]++
			return r.Name
		}
	}
	return ""
}
