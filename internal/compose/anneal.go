package compose

import (
	"math"

	"iobt/internal/sim"
)

// AnnealSolver is the optimization-theoretic composer the paper names
// alongside constraint satisfaction (§III.B, ref [11]): simulated
// annealing over member subsets, warm-started from the greedy solution,
// minimizing composite size subject to feasibility penalties. It trades
// extra wall-clock for leaner composites — the ablation experiment
// measures exactly that trade.
type AnnealSolver struct {
	// RNG drives the Metropolis chain; nil defaults to a fixed seed.
	RNG *sim.RNG
}

// The chain: annealSteps Metropolis steps on a geometric schedule from
// annealStartTemp, cooled by annealCoolRate each step.
const (
	annealSteps     = 4000
	annealStartTemp = 5.0
	annealCoolRate  = 0.999
)

var _ Solver = (*AnnealSolver)(nil)

// Solve implements Solver.
func (s AnnealSolver) Solve(req Requirements, pool []Candidate) (*Composite, error) {
	return s.solve(req, pool, annealSteps)
}

// solve runs a chain of the given length.
func (s AnnealSolver) solve(req Requirements, pool []Candidate, steps int) (*Composite, error) {
	rng := s.RNG
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	temp := annealStartTemp
	eligible := filterEligible(req, pool)
	if len(eligible) == 0 {
		return nil, ErrInfeasible
	}

	// Warm start from greedy (ignore its feasibility verdict; annealing
	// may still fix or shrink it).
	warm, _ := GreedySolver{}.Solve(req, pool)
	inWarm := map[int64]bool{}
	if warm != nil {
		for _, id := range warm.Members {
			inWarm[int64(id)] = true
		}
	}

	st := newAnnealState(req, eligible)
	for i := range eligible {
		if inWarm[int64(eligible[i].ID)] {
			st.flip(i)
		}
	}

	best := st.snapshot()
	bestE := st.energy()
	curE := bestE
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(eligible))
		st.flip(i)
		newE := st.energy()
		delta := newE - curE
		if delta <= 0 || rng.Bool(math.Exp(-delta/temp)) {
			curE = newE
			if newE < bestE {
				bestE = newE
				best = st.snapshot()
			}
		} else {
			st.flip(i) // reject: undo
		}
		temp *= annealCoolRate
	}

	members := make([]Candidate, 0, len(best))
	for _, i := range best {
		members = append(members, eligible[i])
	}
	// Post-pass: connectivity repair (annealing's energy doesn't model
	// the radio graph; reuse the greedy bridge builder).
	chosen := make([]bool, len(eligible))
	for _, i := range best {
		chosen[i] = true
	}
	members = repairConnectivity(eligible, chosen, members, func(i int) {
		chosen[i] = true
		members = append(members, eligible[i])
	})

	a := Evaluate(req, members)
	comp := &Composite{Members: ids(members), Assurance: a}
	if !a.Feasible {
		// The energy function is a proxy (coverage + resources); it does
		// not model the radio graph, latency, or risk, so the chain can
		// drift to a lower-energy subset the full evaluation rejects.
		// Never do worse than the warm start: keep the greedy composite
		// when it was feasible.
		if warm != nil && warm.Assurance.Feasible {
			return warm, nil
		}
		return comp, ErrInfeasible
	}
	return comp, nil
}

// annealState tracks subset membership with incremental feasibility
// accounting so each flip is O(candidate's cover list).
type annealState struct {
	req        Requirements
	eligible   []Candidate
	coverLists [][]int32
	in         []bool
	cellHits   []int
	satisfied  int
	members    int
	compute    float64
	bandwidth  float64
}

func newAnnealState(req Requirements, eligible []Candidate) *annealState {
	return &annealState{
		req:        req,
		eligible:   eligible,
		coverLists: req.CoverLists(eligible),
		in:         make([]bool, len(eligible)),
		cellHits:   make([]int, len(req.Cells)),
	}
}

func (st *annealState) flip(i int) {
	if st.in[i] {
		st.in[i] = false
		st.members--
		st.compute -= st.eligible[i].Caps.Compute
		st.bandwidth -= st.eligible[i].Caps.Bandwidth
		for _, ci := range st.coverLists[i] {
			if st.cellHits[ci] == st.req.CellNeed {
				st.satisfied--
			}
			st.cellHits[ci]--
		}
		return
	}
	st.in[i] = true
	st.members++
	st.compute += st.eligible[i].Caps.Compute
	st.bandwidth += st.eligible[i].Caps.Bandwidth
	for _, ci := range st.coverLists[i] {
		st.cellHits[ci]++
		if st.cellHits[ci] == st.req.CellNeed {
			st.satisfied++
		}
	}
}

// energy penalizes infeasibility heavily and size lightly, so the chain
// first restores feasibility and then shrinks the composite.
func (st *annealState) energy() float64 {
	g := st.req.Goal
	e := float64(st.members)
	if deficit := st.req.NeedCells - st.satisfied; deficit > 0 {
		e += 50 * float64(deficit)
	}
	if g.Compute > 0 && st.compute < g.Compute {
		e += 0.05 * (g.Compute - st.compute)
	}
	if g.Bandwidth > 0 && st.bandwidth < g.Bandwidth {
		e += 0.05 * (g.Bandwidth - st.bandwidth)
	}
	if g.MaxMembers > 0 && st.members > g.MaxMembers {
		e += 50 * float64(st.members-g.MaxMembers)
	}
	return e
}

func (st *annealState) snapshot() []int {
	out := make([]int, 0, st.members)
	for i, ok := range st.in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}
