package compose

import (
	"fmt"
	"sort"
	"strings"

	"iobt/internal/asset"
)

// GreedySolver composes by marginal-gain selection: repeatedly add the
// candidate that covers the most still-uncovered cells, then top up
// compute/bandwidth, then repair connectivity by adding bridge relays;
// if no bridge can reach a chosen sensor, the three phases are retried
// inside each radio component of the pool. Max-coverage greedy carries the classic (1-1/e) approximation
// guarantee, which is the "assured synthesis" story at scale.
type GreedySolver struct{}

var _ Solver = (*GreedySolver)(nil)

// Solve implements Solver. An infeasible result wraps ErrInfeasible with
// the requirements the best composite found still misses.
func (GreedySolver) Solve(req Requirements, pool []Candidate) (*Composite, error) {
	eligible := filterEligible(req, pool)
	if len(eligible) == 0 {
		return nil, ErrInfeasible
	}
	comp := greedyOver(req, eligible)
	if !comp.Assurance.Feasible && !comp.Assurance.Connected {
		// Max-coverage chose a sensor no chain of relays reaches. A
		// connected composite lies inside one radio component of the
		// pool, so look for one there, largest component first.
		for _, part := range radioComponents(eligible) {
			if c := greedyOver(req, part); c.Assurance.Feasible {
				comp = c
				break
			}
		}
	}
	if !comp.Assurance.Feasible {
		return comp, fmt.Errorf("%w: %s", ErrInfeasible, strings.Join(comp.Assurance.Violations, "; "))
	}
	return comp, nil
}

// greedyOver runs the three phases over eligible and evaluates the
// result; it never fails, it reports.
func greedyOver(req Requirements, eligible []Candidate) *Composite {
	st := newCoverState(&req, eligible)
	st.maxCoverage()
	return st.finish()
}

// coverState is one greedy synthesis in progress: who is chosen, in
// pick order, and how many chosen members cover each cell.
type coverState struct {
	req       *Requirements
	eligible  []Candidate
	lists     [][]int32
	chosen    []bool
	cellHits  []int
	satisfied int
	members   []Candidate
}

func newCoverState(req *Requirements, eligible []Candidate) *coverState {
	return &coverState{
		req:      req,
		eligible: eligible,
		lists:    req.CoverLists(eligible),
		chosen:   make([]bool, len(eligible)),
		cellHits: make([]int, len(req.Cells)),
	}
}

// pick adds eligible[i] to the composite, once.
func (st *coverState) pick(i int) {
	if st.chosen[i] {
		return
	}
	st.chosen[i] = true
	st.members = append(st.members, st.eligible[i])
	for _, ci := range st.lists[i] {
		st.cellHits[ci]++
		if st.cellHits[ci] == st.req.CellNeed {
			st.satisfied++
		}
	}
}

// maxCoverage is phase 1: repeatedly pick the unchosen candidate that
// covers the most cells still below CellNeed, first in pool order on a
// tie, until NeedCells are met, nobody adds coverage or MaxMembers is
// reached.
func (st *coverState) maxCoverage() {
	g := st.req.Goal
	for st.satisfied < st.req.NeedCells {
		best, bestGain := -1, 0
		for i, list := range st.lists {
			if st.chosen[i] {
				continue
			}
			gain := 0
			for _, ci := range list {
				if st.cellHits[ci] < st.req.CellNeed {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return // no candidate adds coverage; resources may still pass
		}
		st.pick(best)
		if g.MaxMembers > 0 && len(st.members) >= g.MaxMembers {
			return
		}
	}
}

// finish runs phase 2, the resource top-up, and phase 3, connectivity
// repair, then evaluates the composite.
func (st *coverState) finish() *Composite {
	st.members = topUpResources(*st.req, st.eligible, st.chosen, st.members, st.pick)
	st.members = repairConnectivity(st.eligible, st.chosen, st.members, st.pick)
	return &Composite{Members: ids(st.members), Assurance: Evaluate(*st.req, st.members)}
}

// radioComponents splits candidates into the connected components of
// their mutual radio graph, largest first (ties in pool order). A pool
// that is one component yields nothing: there is no narrower place to
// look.
func radioComponents(candidates []Candidate) [][]Candidate {
	var parts [][]Candidate
	for i, label := range componentLabels(candidates) {
		if label == len(parts) {
			parts = append(parts, nil)
		}
		parts[label] = append(parts[label], candidates[i])
	}
	if len(parts) <= 1 {
		return nil
	}
	sort.SliceStable(parts, func(a, b int) bool { return len(parts[a]) > len(parts[b]) })
	return parts
}

// filterEligible drops candidates below the trust floor. Solvers only
// read the result, so a pool with nobody to drop is returned as it is.
func filterEligible(req Requirements, pool []Candidate) []Candidate {
	g := req.Goal
	keep := 0
	for i := range pool {
		if pool[i].Trust >= g.MinTrust {
			keep++
		}
	}
	if keep == len(pool) {
		return pool
	}
	out := make([]Candidate, 0, keep)
	for _, c := range pool {
		if c.Trust < g.MinTrust {
			continue
		}
		out = append(out, c)
	}
	return out
}

// topUpResources adds candidates until compute and bandwidth demands are
// met (or the pool is exhausted).
func topUpResources(req Requirements, eligible []Candidate, chosen []bool, members []Candidate, pick func(int)) []Candidate {
	g := req.Goal
	var compute, bandwidth float64
	for i := range members {
		compute += members[i].Caps.Compute
		bandwidth += members[i].Caps.Bandwidth
	}
	if compute >= g.Compute && bandwidth >= g.Bandwidth {
		return members
	}
	order := make([]int, 0, len(eligible))
	for i := range eligible {
		if !chosen[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ca := eligible[order[a]].Caps.Compute + eligible[order[a]].Caps.Bandwidth
		cb := eligible[order[b]].Caps.Compute + eligible[order[b]].Caps.Bandwidth
		if ca != cb {
			return ca > cb
		}
		return eligible[order[a]].ID < eligible[order[b]].ID
	})
	picked := len(members)
	for _, i := range order {
		if compute >= g.Compute && bandwidth >= g.Bandwidth {
			break
		}
		if g.MaxMembers > 0 && picked >= g.MaxMembers {
			break
		}
		pick(i)
		picked++
		compute += eligible[i].Caps.Compute
		bandwidth += eligible[i].Caps.Bandwidth
	}
	return membersFrom(eligible, chosen)
}

// repairConnectivity adds unchosen candidates that bridge disconnected
// components of the composite's radio graph, nearest-bridge first, until
// connected or no bridge exists.
func repairConnectivity(eligible []Candidate, chosen []bool, members []Candidate, pick func(int)) []Candidate {
	for iter := 0; iter < len(eligible); iter++ {
		members = membersFrom(eligible, chosen)
		if len(members) <= 1 {
			return members
		}
		comp := componentLabels(members)
		nComp := 0
		for _, c := range comp {
			if c+1 > nComp {
				nComp = c + 1
			}
		}
		if nComp <= 1 {
			return members
		}
		// Find the unchosen candidate that, if added, links at least two
		// distinct components, preferring the one linking the most.
		best, bestLinks := -1, 1
		// Fallback: a candidate linked to one component that moves
		// closest toward a different component (multi-node bridges are
		// built one stepping stone at a time).
		step, stepDist := -1, 0.0
		// linked[c] marks the components the candidate reaches.
		linked := make([]bool, nComp)
		for i := range eligible {
			if chosen[i] {
				continue
			}
			clear(linked)
			links := 0
			for m := range members {
				r := minRange(eligible[i], members[m])
				if eligible[i].Pos.Dist(members[m].Pos) <= r && !linked[comp[m]] {
					linked[comp[m]] = true
					links++
				}
			}
			if links > bestLinks {
				best, bestLinks = i, links
			}
			if links == 1 {
				// Distance from this candidate to the nearest member of
				// a component it is NOT linked to.
				d := -1.0
				for m := range members {
					if linked[comp[m]] {
						continue
					}
					if dd := eligible[i].Pos.Dist(members[m].Pos); d < 0 || dd < d {
						d = dd
					}
				}
				if d >= 0 && (step < 0 || d < stepDist) {
					step, stepDist = i, d
				}
			}
		}
		if best < 0 {
			best = step
		}
		if best < 0 {
			return members // no bridge exists; Evaluate will flag it
		}
		pick(best)
	}
	return membersFrom(eligible, chosen)
}

func minRange(a, b Candidate) float64 {
	r := a.Caps.RadioRange
	if b.Caps.RadioRange < r {
		r = b.Caps.RadioRange
	}
	return r
}

// componentLabels labels each member with its connected-component index.
func componentLabels(members []Candidate) []int {
	n := len(members)
	adj := buildAdjacency(members)
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if label[i] >= 0 {
			continue
		}
		stack := []int{i}
		label[i] = next
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if label[v] < 0 {
					label[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return label
}

func membersFrom(eligible []Candidate, chosen []bool) []Candidate {
	var out []Candidate
	for i, ok := range chosen {
		if ok {
			out = append(out, eligible[i])
		}
	}
	return out
}

func ids(members []Candidate) []asset.ID {
	out := make([]asset.ID, len(members))
	for i := range members {
		out[i] = members[i].ID
	}
	return out
}
