package compose

import (
	"iobt/internal/sim"
)

// RandomSolver is the uninformed baseline: it draws random subsets of a
// target size and returns the first feasible one, growing the size when
// attempts fail. Experiment E2 uses it to show that the search space is
// far too large for undirected sampling.
type RandomSolver struct {
	RNG *sim.RNG
}

var _ Solver = (*RandomSolver)(nil)

// The sampling schedule: randomAttempts draws per subset size, sizes
// growing from randomStartSize to at most randomMaxSize members.
const (
	randomAttempts  = 20
	randomStartSize = 8
	randomMaxSize   = 512
)

// Solve implements Solver.
func (s RandomSolver) Solve(req Requirements, pool []Candidate) (*Composite, error) {
	return s.solve(req, pool, randomAttempts, randomMaxSize)
}

// solve draws attempts subsets per size, growing the size to at most
// maxSize members (and the eligible pool).
func (s RandomSolver) solve(req Requirements, pool []Candidate, attempts, maxSize int) (*Composite, error) {
	rng := s.RNG
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	eligible := filterEligible(req, pool)
	if len(eligible) == 0 {
		return nil, ErrInfeasible
	}
	size := randomStartSize
	if maxSize > len(eligible) {
		maxSize = len(eligible)
	}
	if req.Goal.MaxMembers > 0 && req.Goal.MaxMembers < maxSize {
		maxSize = req.Goal.MaxMembers
	}

	var best *Composite
	bestCover := -1.0
	for ; size <= maxSize; size = grow(size) {
		if size > len(eligible) {
			size = len(eligible)
		}
		for t := 0; t < attempts; t++ {
			perm := rng.Perm(len(eligible))
			members := make([]Candidate, 0, size)
			for _, idx := range perm[:size] {
				members = append(members, eligible[idx])
			}
			a := Evaluate(req, members)
			if a.Feasible {
				return &Composite{Members: ids(members), Assurance: a}, nil
			}
			if a.CoverageFrac > bestCover {
				bestCover = a.CoverageFrac
				best = &Composite{Members: ids(members), Assurance: a}
			}
		}
		if size == len(eligible) {
			break
		}
	}
	if best != nil {
		return best, ErrInfeasible
	}
	return nil, ErrInfeasible
}

func grow(size int) int {
	next := size * 3 / 2
	if next <= size {
		next = size + 1
	}
	return next
}
