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
// It runs GreedySolver's phases with the survivors already seated, so
// it picks replacements only for the cells the losses opened. Each
// candidate is scored against its own cover list, the cells of its
// sensing box, never the whole grid; the number of picks follows the
// damage, but building the lists still visits every candidate once.
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

	st := newCoverState(&req, eligible)
	// Re-seat survivors.
	for _, id := range prev.Members {
		if i := byID[id]; !failed[id] && i >= 0 {
			st.pick(i)
		}
	}
	st.maxCoverage()
	comp := st.finish()
	if !comp.Assurance.Feasible {
		return comp, ErrInfeasible
	}
	return comp, nil
}
