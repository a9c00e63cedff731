package verify

import (
	"time"

	"iobt/internal/fault"
)

// Cost scores a scenario for shrinking: bigger worlds, longer runs, and
// richer fault plans cost more. The shrinker minimizes this score while
// preserving the failure.
func (s Scenario) Cost() int {
	n := s.Assets + int(s.Size/10) + int(s.Horizon/time.Second)
	if s.Plan != nil {
		n += 20 * len(s.Plan.Faults)
	}
	return n
}

// shrinkWeight orders candidates: primarily by Cost, with a small
// tie-break toward fewer enabled features so the reproducer is as plain
// as possible.
func shrinkWeight(s Scenario) int {
	w := 4 * s.Cost()
	for _, on := range []bool{s.Reliable, s.Degrade, s.Track, s.Checkpoint > 0, s.Churn, s.Gossip} {
		if on {
			w++
		}
	}
	if s.Terrain != "open" {
		w++
	}
	return w
}

// Shrink greedily reduces a failing scenario to a smaller one that
// still fails, using fails as the oracle (it must rerun the scenario
// and report whether the violation reproduces). It tries at most
// maxAttempts oracle calls and returns the smallest failing scenario
// found — at worst the input itself.
func Shrink(s Scenario, fails func(Scenario) bool, maxAttempts int) Scenario {
	if maxAttempts <= 0 {
		maxAttempts = 60
	}
	attempts := 0
	try := func(c Scenario) bool {
		if attempts >= maxAttempts {
			return false
		}
		if shrinkWeight(c) >= shrinkWeight(s) {
			return false
		}
		attempts++
		if fails(c) {
			s = c
			return true
		}
		return false
	}

	for progress := true; progress; {
		progress = false
		for _, c := range candidates(s) {
			if try(c) {
				progress = true
				// Restart from the new smaller base: earlier reductions
				// that failed before may succeed now.
				break
			}
		}
		if attempts >= maxAttempts {
			break
		}
	}
	return s
}

// candidates proposes one-step reductions of s, most aggressive first.
func candidates(s Scenario) []Scenario {
	var out []Scenario
	add := func(mutate func(*Scenario)) {
		c := s
		if s.Plan != nil {
			c.Plan = clonePlan(s.Plan)
		}
		mutate(&c)
		out = append(out, c)
	}

	// Fault plan: drop it all, halve it, drop one at a time.
	if s.Plan != nil && len(s.Plan.Faults) > 0 {
		add(func(c *Scenario) { c.Plan = nil })
		if n := len(s.Plan.Faults); n > 1 {
			add(func(c *Scenario) { c.Plan.Faults = c.Plan.Faults[:n/2] })
			add(func(c *Scenario) { c.Plan.Faults = c.Plan.Faults[n/2:] })
			for i := 0; i < n; i++ {
				i := i
				add(func(c *Scenario) {
					c.Plan.Faults = append(c.Plan.Faults[:i:i], c.Plan.Faults[i+1:]...)
				})
			}
		}
	}
	// World: jump to the floor first, then halve toward it.
	if s.Assets > 50 {
		add(func(c *Scenario) { c.Assets = 50 })
		if s.Assets > 100 {
			add(func(c *Scenario) { c.Assets /= 2 })
		}
	}
	if s.Size > 400 {
		add(func(c *Scenario) { c.Size = 400 })
		if s.Size > 800 {
			add(func(c *Scenario) { c.Size /= 2 })
		}
	}
	if s.Horizon > 30*time.Second {
		add(func(c *Scenario) { c.Horizon = 30 * time.Second })
		if s.Horizon > 60*time.Second {
			add(func(c *Scenario) { c.Horizon /= 2 })
		}
	}
	if s.Rate > 6 {
		add(func(c *Scenario) { c.Rate = 6 })
	}
	// Features: strip optional machinery.
	if s.Checkpoint > 0 {
		add(func(c *Scenario) { c.Checkpoint = 0 })
	}
	if s.Track {
		add(func(c *Scenario) { c.Track = false })
	}
	if s.Reliable {
		add(func(c *Scenario) { c.Reliable = false })
	}
	if s.Degrade {
		add(func(c *Scenario) { c.Degrade = false })
	}
	if s.Terrain != "open" {
		add(func(c *Scenario) { c.Terrain = "open" })
	}
	if s.Churn {
		add(func(c *Scenario) { c.Churn = false })
	}
	if s.Gossip {
		add(func(c *Scenario) { c.Gossip = false })
	}
	return out
}

func clonePlan(p *fault.Plan) *fault.Plan {
	c := &fault.Plan{Name: p.Name}
	c.Faults = append([]fault.Fault(nil), p.Faults...)
	return c
}
