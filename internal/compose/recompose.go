package compose

import (
	"iobt/internal/asset"
)

// Recompose incrementally repairs a composite after member losses: it
// keeps the surviving members and greedily adds replacements from the
// pool to restore coverage, resources, and connectivity. This is the
// paper's "re-assemble, for example, upon damage ... on demand and
// within an appropriately short time" requirement; experiments E2/E4
// compare its repair time against solving from scratch.
//
// Unlike GreedySolver, Recompose never scores candidates against the
// full cell grid: it first computes the cells still open after the
// survivors are counted, then evaluates candidates against that (much
// smaller) open set — the work is proportional to the damage, not to
// the mission size.
func Recompose(req Requirements, prev *Composite, failed map[asset.ID]bool, pool []Candidate) (*Composite, error) {
	if prev == nil {
		return GreedySolver{}.Solve(req, pool)
	}
	eligible := filterEligible(req, pool)
	if len(eligible) == 0 {
		return nil, ErrInfeasible
	}
	// Where each previous member sits in eligible, if it still does.
	byID := make(map[asset.ID]int, len(prev.Members))
	for _, id := range prev.Members {
		byID[id] = -1
	}
	for i := range eligible {
		if _, was := byID[eligible[i].ID]; was {
			byID[eligible[i].ID] = i
		}
	}

	g := req.Goal
	chosen := make([]bool, len(eligible))
	cellHits := make([]int, len(req.Cells))
	satisfied := 0
	var members []Candidate

	countCells := func(c *Candidate) {
		for ci, cell := range req.Cells {
			if c.covers(g, cell) {
				cellHits[ci]++
				if cellHits[ci] == req.CellNeed {
					satisfied++
				}
			}
		}
	}
	// Re-seat survivors.
	for _, id := range prev.Members {
		if failed[id] {
			continue
		}
		if i := byID[id]; i >= 0 && !chosen[i] {
			chosen[i] = true
			members = append(members, eligible[i])
			countCells(&eligible[i])
		}
	}

	// Open cells: those still below the k-coverage requirement.
	var open []int
	for ci := range req.Cells {
		if cellHits[ci] < req.CellNeed {
			open = append(open, ci)
		}
	}

	// Greedy top-up scored against open cells only.
	for satisfied < req.NeedCells && len(open) > 0 {
		best, bestGain := -1, 0
		for i := range eligible {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, ci := range open {
				if eligible[i].covers(g, req.Cells[ci]) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		members = append(members, eligible[best])
		countCells(&eligible[best])
		// Shrink the open set.
		var still []int
		for _, ci := range open {
			if cellHits[ci] < req.CellNeed {
				still = append(still, ci)
			}
		}
		open = still
		if g.MaxMembers > 0 && len(members) >= g.MaxMembers {
			break
		}
	}

	// Resource and connectivity repair reuse the greedy helpers; they
	// need a pick function that maintains the same bookkeeping.
	pick := func(i int) {
		if chosen[i] {
			return
		}
		chosen[i] = true
		members = append(members, eligible[i])
		countCells(&eligible[i])
	}
	members = topUpResources(req, eligible, chosen, members, pick)
	members = repairConnectivity(eligible, chosen, members, pick)

	a := Evaluate(req, members)
	comp := &Composite{Members: ids(members), Assurance: a}
	if !a.Feasible {
		return comp, ErrInfeasible
	}
	return comp, nil
}
