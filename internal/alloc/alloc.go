// Package alloc implements adaptive resource allocation (paper §IV.B):
// weighted max-min fair sharing with per-class isolation and admission
// control, so that no subset of IoBT devices — "including attackers" —
// can saturate shared communication or processing resources.
package alloc

import (
	"sort"
)

// Class partitions flows by provenance for isolation purposes.
type Class int

// Flow classes. Authenticated mission traffic is isolated from
// unauthenticated commodity traffic; an attacker controlling gray nodes
// lands in ClassUntrusted and can only exhaust that class's share.
const (
	ClassMission Class = iota + 1
	ClassTelemetry
	ClassUntrusted
)

// Flow is one traffic or compute demand on a shared resource.
type Flow struct {
	ID     int
	Class  Class
	Weight float64
	Demand float64
}

// MaxMinFair computes the weighted max-min fair allocation of capacity
// to flows (progressive water-filling): no flow gets more than its
// demand, and unused share is redistributed by weight. The returned
// slice is indexed like flows.
func MaxMinFair(capacity float64, flows []Flow) []float64 {
	n := len(flows)
	out := make([]float64, n)
	if capacity <= 0 || n == 0 {
		return out
	}
	active := make([]int, 0, n)
	for i := range flows {
		if flows[i].Demand > 0 && flows[i].Weight > 0 {
			active = append(active, i)
		}
	}
	remaining := capacity
	for len(active) > 0 && remaining > 1e-12 {
		totalW := 0.0
		for _, i := range active {
			totalW += flows[i].Weight
		}
		// Fill level per unit weight this round.
		fill := remaining / totalW
		var still []int
		progressed := false
		for _, i := range active {
			share := fill * flows[i].Weight
			need := flows[i].Demand - out[i]
			if share >= need {
				out[i] += need
				remaining -= need
				progressed = true
			} else {
				still = append(still, i)
			}
		}
		if !progressed {
			// Everyone is unsatisfied: give the proportional share and stop.
			for _, i := range still {
				out[i] += fill * flows[i].Weight
			}
			remaining = 0
			break
		}
		active = still
	}
	return out
}

// FIFO allocates capacity in arrival order: each flow takes min(demand,
// whatever is left). It is the no-isolation baseline an attacker
// saturates trivially.
func FIFO(capacity float64, flows []Flow) []float64 {
	out := make([]float64, len(flows))
	left := capacity
	for i := range flows {
		if left <= 0 {
			break
		}
		take := flows[i].Demand
		if take > left {
			take = left
		}
		if take < 0 {
			take = 0
		}
		out[i] = take
		left -= take
	}
	return out
}

// ClassShares maps each class to its guaranteed capacity fraction.
// Fractions should sum to <= 1; unconfigured classes share the
// remainder equally.
type ClassShares map[Class]float64

// DefaultShares reserves most capacity for mission traffic.
func DefaultShares() ClassShares {
	return ClassShares{
		ClassMission:   0.6,
		ClassTelemetry: 0.25,
		ClassUntrusted: 0.15,
	}
}

// Isolated allocates capacity with per-class isolation: each class gets
// its configured share (unused share spills to other classes,
// mission-first), and flows within a class share max-min fairly. This is
// the defense experiment E9 measures.
func Isolated(capacity float64, flows []Flow, shares ClassShares) []float64 {
	out := make([]float64, len(flows))
	if capacity <= 0 || len(flows) == 0 {
		return out
	}
	byClass := map[Class][]int{}
	for i := range flows {
		byClass[flows[i].Class] = append(byClass[flows[i].Class], i)
	}
	classes := make([]Class, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	// Deterministic order: mission first (lowest class value first).
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	// First pass: per-class share, clipped to demand.
	demands := map[Class]float64{}
	for _, c := range classes {
		for _, i := range byClass[c] {
			demands[c] += flows[i].Demand
		}
	}
	classCap := map[Class]float64{}
	assigned := 0.0
	for _, c := range classes {
		quota := capacity * shares[c]
		if demands[c] < quota {
			quota = demands[c]
		}
		classCap[c] = quota
		assigned += quota
	}
	// Spill is everything unassigned — including the shares of classes
	// with no flows at all.
	spill := capacity - assigned
	if spill < 0 {
		spill = 0
	}
	// Spill unused share to still-hungry classes, priority order.
	for _, c := range classes {
		if spill <= 0 {
			break
		}
		hunger := demands[c] - classCap[c]
		if hunger <= 0 {
			continue
		}
		give := hunger
		if give > spill {
			give = spill
		}
		classCap[c] += give
		spill -= give
	}
	// Second pass: fair share within each class.
	for _, c := range classes {
		idx := byClass[c]
		sub := make([]Flow, len(idx))
		for k, i := range idx {
			sub[k] = flows[i]
		}
		alloc := MaxMinFair(classCap[c], sub)
		for k, i := range idx {
			out[i] = alloc[k]
		}
	}
	return out
}

// Admission enforces a per-flow rate cap before allocation: demands are
// clipped to limit, modeling per-source policing that blunts floods at
// the first hop.
func Admission(flows []Flow, limit float64) []Flow {
	out := make([]Flow, len(flows))
	copy(out, flows)
	if limit <= 0 {
		return out
	}
	for i := range out {
		if out[i].Demand > limit {
			out[i].Demand = limit
		}
	}
	return out
}

// MissionGoodput sums the allocation received by mission flows.
func MissionGoodput(flows []Flow, alloc []float64) float64 {
	g := 0.0
	for i := range flows {
		if flows[i].Class == ClassMission && i < len(alloc) {
			g += alloc[i]
		}
	}
	return g
}
