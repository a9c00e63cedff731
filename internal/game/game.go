// Package game implements the paper's game-theoretic command-by-intent
// machinery (§IV.A "Operationalizing agent interactions"): global goals
// are encoded as per-agent objective functions such that selfish
// optimization provably converges to an equilibrium meeting the goal,
// with no explicit coordination — "the necessary distributed
// coordination and control between agents do not need to be explicitly
// designed".
//
// The concrete game is task allocation as a congestion game with shared
// rewards: agent utility for task m is Value(m)/n_m. This is a Rosenthal
// potential game, so best-response dynamics converge to a pure Nash
// equilibrium; the potential function is the analytic assurance on
// aggregate behavior the paper asks for.
package game

import "iobt/internal/sim"

// Task is one unit of mission work with a commander-assigned value.
type Task struct {
	// Value is the task's mission worth; shared equally by the agents
	// working it.
	Value float64
}

// Game is a task-allocation congestion game.
type Game struct {
	tasks  []Task
	choice []int // agent -> task index
	load   []int // task -> number of agents
	rng    *sim.RNG

	// Moves counts agent decisions taken (scalability metric: each is a
	// purely local computation).
	Moves sim.Counter
}

// New returns a game with nAgents agents initially assigned to task 0
// (an arbitrary legal start; call Randomize for a random start).
func New(tasks []Task, nAgents int, rng *sim.RNG) *Game {
	ts := make([]Task, len(tasks))
	copy(ts, tasks)
	g := &Game{
		tasks:  ts,
		choice: make([]int, nAgents),
		load:   make([]int, len(tasks)),
		rng:    rng,
	}
	if len(ts) > 0 {
		g.load[0] = nAgents
	}
	return g
}

// Randomize assigns every agent a uniform random task.
func (g *Game) Randomize() {
	for t := range g.load {
		g.load[t] = 0
	}
	for i := range g.choice {
		t := g.rng.Intn(len(g.tasks))
		g.choice[i] = t
		g.load[t]++
	}
}

// Utility returns agent i's current payoff.
func (g *Game) Utility(i int) float64 {
	t := g.choice[i]
	return g.tasks[t].Value / float64(g.load[t])
}

// utilityIf returns i's payoff if it switched to task t.
func (g *Game) utilityIf(i, t int) float64 {
	if g.choice[i] == t {
		return g.Utility(i)
	}
	return g.tasks[t].Value / float64(g.load[t]+1)
}

// Potential returns Rosenthal's potential Φ = Σ_m Σ_{k=1..n_m} V_m/k.
// Every unilateral improving move strictly increases Φ, which is the
// convergence guarantee.
func (g *Game) Potential() float64 {
	phi := 0.0
	for t, n := range g.load {
		for k := 1; k <= n; k++ {
			phi += g.tasks[t].Value / float64(k)
		}
	}
	return phi
}

// Welfare returns the total mission value achieved: the summed value of
// tasks with at least one agent (shared rewards make total agent utility
// equal covered value).
func (g *Game) Welfare() float64 {
	w := 0.0
	for t, n := range g.load {
		if n > 0 {
			w += g.tasks[t].Value
		}
	}
	return w
}

// bestResponse moves agent i to its best task. It returns true if the
// agent switched.
func (g *Game) bestResponse(i int) bool {
	g.Moves.Inc()
	cur := g.choice[i]
	best, bestU := cur, g.Utility(i)
	for t := range g.tasks {
		if u := g.utilityIf(i, t); u > bestU+1e-12 {
			best, bestU = t, u
		}
	}
	if best == cur {
		return false
	}
	g.load[cur]--
	g.load[best]++
	g.choice[i] = best
	return true
}

// Round lets every agent best-respond once, in random order (asynchronous
// play). It returns the number of agents that switched.
func (g *Game) Round() int {
	switched := 0
	for _, i := range g.rng.Perm(len(g.choice)) {
		if g.bestResponse(i) {
			switched++
		}
	}
	return switched
}

// maxRounds bounds Run.
const maxRounds = 10000

// Run plays rounds until no agent switches or maxRounds is hit. It
// returns the rounds used and whether a pure Nash equilibrium was
// reached.
func (g *Game) Run() (int, bool) {
	for r := 1; r <= maxRounds; r++ {
		if g.Round() == 0 {
			return r, true
		}
	}
	return maxRounds, false
}

// IsEquilibrium verifies no agent has a profitable unilateral deviation.
func (g *Game) IsEquilibrium() bool {
	for i := range g.choice {
		u := g.Utility(i)
		for t := range g.tasks {
			if g.utilityIf(i, t) > u+1e-12 {
				return false
			}
		}
	}
	return true
}

// OptimalWelfare returns the centralized optimum: with n agents and
// shared rewards, cover the n most valuable tasks (one agent each covers
// a task; extra agents add no welfare).
func OptimalWelfare(tasks []Task, nAgents int) float64 {
	vals := make([]float64, len(tasks))
	for i, t := range tasks {
		vals[i] = t.Value
	}
	// Partial selection of top-n values.
	sortDesc(vals)
	w := 0.0
	for i := 0; i < len(vals) && i < nAgents; i++ {
		w += vals[i]
	}
	return w
}
