package game

import (
	"strconv"

	"iobt/internal/sim"
)

// Decomposition is the paper's "hierarchical decomposition of global
// goals into objectives for distributed subordinate subsystems"
// (§IV): the commander partitions tasks into sectors, assigns each
// sector a proportional share of agents, and each sector runs its own
// independent game — subordinate initiative with an aggregate guarantee.
type Decomposition struct {
	// Sectors holds one subgame per sector.
	Sectors []*Game
}

// sectors is how many sectors Decompose splits the tasks into.
const sectors = 8

// Decompose splits tasks into 8 contiguous sectors (fewer when there
// are fewer tasks) and divides nAgents among them proportionally to
// sector value. Each subgame is independent: no cross-sector
// coordination is needed at runtime, which is the scalability win E5
// measures.
func Decompose(tasks []Task, nAgents int, rng *sim.RNG) *Decomposition {
	nSectors := sectors
	if nSectors > len(tasks) {
		nSectors = len(tasks)
	}
	d := &Decomposition{}
	if len(tasks) == 0 {
		return d
	}
	// Contiguous partition of the task list.
	per := (len(tasks) + nSectors - 1) / nSectors
	type sector struct {
		tasks []Task
		value float64
	}
	var sectors []sector
	total := 0.0
	for start := 0; start < len(tasks); start += per {
		end := start + per
		if end > len(tasks) {
			end = len(tasks)
		}
		sec := sector{tasks: tasks[start:end]}
		for _, t := range sec.tasks {
			sec.value += t.Value
		}
		total += sec.value
		sectors = append(sectors, sec)
	}
	// Proportional agent split (largest remainder would be fancier; a
	// simple floor + leftover-to-richest is adequate and deterministic).
	assigned := 0
	shares := make([]int, len(sectors))
	richest := 0
	for i, sec := range sectors {
		if total > 0 {
			shares[i] = int(float64(nAgents) * sec.value / total)
		}
		assigned += shares[i]
		if sec.value > sectors[richest].value {
			richest = i
		}
	}
	shares[richest] += nAgents - assigned
	for i, sec := range sectors {
		g := New(sec.tasks, shares[i], rng.Derive("sector"+strconv.Itoa(i)))
		g.Randomize()
		d.Sectors = append(d.Sectors, g)
	}
	return d
}

// Run plays every sector's best-response dynamics to convergence (or
// maxRounds). It returns the max rounds used by any sector and whether
// all converged.
func (d *Decomposition) Run() (int, bool) {
	worst := 0
	all := true
	for _, g := range d.Sectors {
		r, ok := g.Run()
		if r > worst {
			worst = r
		}
		all = all && ok
	}
	return worst, all
}

// Welfare sums sector welfares.
func (d *Decomposition) Welfare() float64 {
	w := 0.0
	for _, g := range d.Sectors {
		w += g.Welfare()
	}
	return w
}

// Moves sums decision counts across sectors.
func (d *Decomposition) Moves() uint64 {
	var n uint64
	for _, g := range d.Sectors {
		n += g.Moves.Value()
	}
	return n
}
