package compose

import "sort"

// CSPSolver finds a minimum-cardinality feasible composite by iterative
// deepening over subset size with constraint propagation (remaining
// coverage bound pruning). It is exact but exponential, so it carries a
// node budget: when the budget is exhausted it returns the best feasible
// composite found so far, or ErrInfeasible.
//
// The paper (§III.B "Scalability") names constraint satisfaction as one
// formalism and observes the search space is "very large because of the
// heterogeneity of sensors, actuators and compute elements"; experiment
// E2 measures exactly where this solver stops being tractable and how
// close GreedySolver gets at a fraction of the cost.
type CSPSolver struct{}

var _ Solver = (*CSPSolver)(nil)

// The search budget: explored nodes, and the largest subset size tried.
const (
	cspMaxNodes = 100000
	cspMaxSize  = 10
)

// Solve implements Solver.
func (CSPSolver) Solve(req Requirements, pool []Candidate) (*Composite, error) {
	return solveCSP(req, pool, cspMaxNodes, cspMaxSize)
}

// solveCSP searches at most maxNodes nodes over subsets of at most
// maxSize members.
func solveCSP(req Requirements, pool []Candidate, maxNodes, maxSize int) (*Composite, error) {
	eligible := filterEligible(req, pool)
	if len(eligible) == 0 {
		return nil, ErrInfeasible
	}
	if req.Goal.MaxMembers > 0 && req.Goal.MaxMembers < maxSize {
		maxSize = req.Goal.MaxMembers
	}

	// Order candidates by descending coverage degree: better pruning.
	coverLists := req.CoverLists(eligible)
	order := make([]int, len(eligible))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if len(coverLists[order[a]]) != len(coverLists[order[b]]) {
			return len(coverLists[order[a]]) > len(coverLists[order[b]])
		}
		return eligible[order[a]].ID < eligible[order[b]].ID
	})

	st := &cspState{
		req:        req,
		eligible:   eligible,
		coverLists: coverLists,
		order:      order,
		budget:     maxNodes,
		cellHits:   make([]int, len(req.Cells)),
	}

	for size := 1; size <= maxSize; size++ {
		if st.budget <= 0 {
			break
		}
		if found := st.search(0, size, nil, 0); found != nil {
			a := Evaluate(req, found)
			return &Composite{Members: ids(found), Assurance: a}, nil
		}
	}
	return nil, ErrInfeasible
}

type cspState struct {
	req        Requirements
	eligible   []Candidate
	coverLists [][]int32
	order      []int
	budget     int
	cellHits   []int
	satisfied  int
}

// search tries to complete a feasible set of exactly `remaining` more
// members starting at order position `from`. It returns the member set
// on success.
func (st *cspState) search(from, remaining int, members []Candidate, _ int) []Candidate {
	if st.budget <= 0 {
		return nil
	}
	st.budget--
	if remaining == 0 {
		a := Evaluate(st.req, members)
		if a.Feasible {
			out := make([]Candidate, len(members))
			copy(out, members)
			return out
		}
		return nil
	}
	// Prune: even taking the `remaining` best remaining candidates by
	// coverage degree cannot reach the coverage requirement.
	if !st.coverageStillPossible(from, remaining) {
		return nil
	}
	for oi := from; oi <= len(st.order)-remaining; oi++ {
		i := st.order[oi]
		// Choose i.
		for _, ci := range st.coverLists[i] {
			st.cellHits[ci]++
			if st.cellHits[ci] == st.req.CellNeed {
				st.satisfied++
			}
		}
		if got := st.search(oi+1, remaining-1, append(members, st.eligible[i]), 0); got != nil {
			// Undo before returning (callers above also undo).
			st.undo(i)
			return got
		}
		st.undo(i)
		if st.budget <= 0 {
			return nil
		}
	}
	return nil
}

func (st *cspState) undo(i int) {
	for _, ci := range st.coverLists[i] {
		if st.cellHits[ci] == st.req.CellNeed {
			st.satisfied--
		}
		st.cellHits[ci]--
	}
}

// coverageStillPossible is an optimistic bound: current satisfied cells
// plus the largest `remaining` cover-list sizes must reach NeedCells.
func (st *cspState) coverageStillPossible(from, remaining int) bool {
	possible := st.satisfied
	count := 0
	for oi := from; oi < len(st.order) && count < remaining; oi++ {
		possible += len(st.coverLists[st.order[oi]])
		count++
	}
	return possible >= st.req.NeedCells
}
