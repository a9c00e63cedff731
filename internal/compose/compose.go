// Package compose synthesizes composite IoBT assets from discovered
// candidates (paper §III.B): given a high-level mission goal it derives
// concrete requirements, searches the candidate pool for a subset that
// satisfies them, repairs connectivity, and emits a quantified assurance
// report — the paper's "composable assurances of correctness and
// composable assessments of risk".
//
// Three solvers cover the paper's design space: GreedySolver (scalable
// marginal-gain max-coverage with the classic (1-1/e) guarantee),
// CSPSolver (exact minimum-cardinality search for small instances), and
// RandomSolver (the uninformed baseline experiment E2 compares against).
package compose

import (
	"errors"
	"fmt"
	"math"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/trust"
)

// Goal is a high-level mission need ("track insurgents and report on
// their activities within a geographic area").
type Goal struct {
	Name string
	// Area is the geographic region the mission must sense.
	Area geo.Rect
	// Modalities are the sensing modalities required (any listed bit
	// qualifies a sensor for coverage).
	Modalities asset.Modality
	// CoverageFrac is the fraction of Area that must be sensed, in (0,1].
	CoverageFrac float64
	// Redundancy is the k in k-coverage; values < 1 default to 1.
	Redundancy int
	// Compute and Bandwidth are aggregate resource demands across the
	// composite (MIPS / kb/s).
	Compute   float64
	Bandwidth float64
	// MaxLatency bounds the worst-case in-composite delivery latency
	// (diameter hops x perHop). Zero disables the check.
	MaxLatency time.Duration
	// MinTrust excludes candidates below this trust score.
	MinTrust float64
	// MaxRiskFrac bounds the fraction of members that are gray or
	// low-trust; 0 means "no bound".
	MaxRiskFrac float64
	// MaxMembers caps composite size; 0 means unlimited.
	MaxMembers int
}

// perHop is the per-hop latency estimate used for the latency
// assurance.
const perHop = 5 * time.Millisecond

// Requirements is the machine-checkable derivation of a Goal: the
// concrete coverage cells, resource totals, and structural constraints
// the composite must meet. It is produced by Derive and consumed by
// solvers and Evaluate.
type Requirements struct {
	Goal Goal
	// Cells is the discretized coverage grid over Goal.Area.
	Cells []geo.Point
	// CellNeed is Redundancy (>=1).
	CellNeed int
	// NeedCells is the number of cells that must reach CellNeed coverage.
	NeedCells int
	// cols is the number of cells per row of Cells' grid, 0 when the
	// grid's centres are not all finite.
	cols int
}

// Derive performs the paper's "reasoning from goals to means": it turns
// the declarative Goal into explicit requirements.
func Derive(g Goal) Requirements {
	if g.Redundancy < 1 {
		g.Redundancy = 1
	}
	if g.CoverageFrac <= 0 {
		g.CoverageFrac = 0.9
	}
	if g.CoverageFrac > 1 {
		g.CoverageFrac = 1
	}
	cells, cols := coverageCells(g.Area)
	need := int(g.CoverageFrac * float64(len(cells)))
	if need < 1 && len(cells) > 0 {
		need = 1
	}
	return Requirements{
		Goal:      g,
		Cells:     cells,
		CellNeed:  g.Redundancy,
		NeedCells: need,
		cols:      cols,
	}
}

// coverageCells discretizes an area into at most ~32x32 cell centers,
// row by row, and returns them with the number of columns, or 0 when
// some centre is not finite.
func coverageCells(area geo.Rect) ([]geo.Point, int) {
	const maxSide = 32
	w, h := area.Width(), area.Height()
	if w <= 0 || h <= 0 {
		return nil, 0
	}
	nx, ny := maxSide, maxSide
	if w < h {
		nx = int(float64(maxSide) * w / h)
	} else {
		ny = int(float64(maxSide) * h / w)
	}
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	cells := make([]geo.Point, 0, nx*ny)
	dx, dy := w/float64(nx), h/float64(ny)
	finite := true
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			p := geo.Point{
				X: area.Min.X + (float64(ix)+0.5)*dx,
				Y: area.Min.Y + (float64(iy)+0.5)*dy,
			}
			finite = finite && !math.IsInf(p.X, 0) && !math.IsNaN(p.X) && !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y)
			cells = append(cells, p)
		}
	}
	if !finite {
		return cells, 0
	}
	return cells, nx
}

// Candidate is one recruitable asset as seen by the composer.
type Candidate struct {
	ID          asset.ID
	Pos         geo.Point
	Caps        asset.Capabilities
	Trust       float64
	Affiliation asset.Affiliation
}

// PoolFromPopulation builds the candidate pool from ground truth: all
// alive blue/gray assets, with trust from the ledger (0.5 if nil).
func PoolFromPopulation(pop *asset.Population, ledger *trust.Ledger) []Candidate {
	out := make([]Candidate, 0, pop.Len())
	for _, a := range pop.All() {
		if !a.Alive() || a.Affiliation == asset.Red {
			continue
		}
		tr := 0.5
		if ledger != nil {
			tr = ledger.Score(a.ID)
		}
		out = append(out, Candidate{
			ID:          a.ID,
			Pos:         a.Pos(),
			Caps:        a.Caps,
			Trust:       tr,
			Affiliation: a.Affiliation,
		})
	}
	return out
}

// Assurance quantifies what a composite guarantees (paper: "aggregate
// properties ... must be formally assured in an appropriately
// quantifiable and operationally relevant manner").
type Assurance struct {
	CoverageFrac float64
	Connected    bool
	EstLatency   time.Duration
	Compute      float64
	Bandwidth    float64
	MeanTrust    float64
	RiskFrac     float64
	Feasible     bool
	Violations   []string
}

// Composite is a synthesized asset: the member set plus its assurance.
type Composite struct {
	Members   []asset.ID
	Assurance Assurance
}

// Solver searches the pool for a composite meeting req.
type Solver interface {
	Solve(req Requirements, pool []Candidate) (*Composite, error)
}

// ErrInfeasible means no feasible composite was found in the pool.
var ErrInfeasible = errors.New("compose: no feasible composite in candidate pool")

// Evaluate computes the assurance report of a member set against req.
func Evaluate(req Requirements, members []Candidate) Assurance {
	g := req.Goal
	a := Assurance{}

	// Coverage.
	if len(req.Cells) > 0 {
		covered := 0
		for _, cell := range req.Cells {
			hits := 0
			for i := range members {
				if members[i].covers(g.Modalities, cell) {
					hits++
					if hits >= req.CellNeed {
						break
					}
				}
			}
			if hits >= req.CellNeed {
				covered++
			}
		}
		a.CoverageFrac = float64(covered) / float64(len(req.Cells))
	}

	// Resources and trust.
	risky := 0
	for i := range members {
		a.Compute += members[i].Caps.Compute
		a.Bandwidth += members[i].Caps.Bandwidth
		a.MeanTrust += members[i].Trust
		if members[i].Affiliation == asset.Gray || members[i].Trust < g.MinTrust {
			risky++
		}
	}
	if len(members) > 0 {
		a.MeanTrust /= float64(len(members))
		a.RiskFrac = float64(risky) / float64(len(members))
	}

	// Connectivity and latency over the composite's own radio graph.
	diam, connected := compositeDiameter(members)
	a.Connected = connected
	a.EstLatency = time.Duration(diam) * perHop

	// Verdict.
	needFrac := float64(req.NeedCells) / float64(maxInt(len(req.Cells), 1))
	if a.CoverageFrac+1e-9 < needFrac {
		a.Violations = append(a.Violations, fmt.Sprintf("coverage %.2f < %.2f", a.CoverageFrac, needFrac))
	}
	if a.Compute < g.Compute {
		a.Violations = append(a.Violations, fmt.Sprintf("compute %.0f < %.0f", a.Compute, g.Compute))
	}
	if a.Bandwidth < g.Bandwidth {
		a.Violations = append(a.Violations, fmt.Sprintf("bandwidth %.0f < %.0f", a.Bandwidth, g.Bandwidth))
	}
	if !connected && len(members) > 1 {
		a.Violations = append(a.Violations, "composite not connected")
	}
	if g.MaxLatency > 0 && a.EstLatency > g.MaxLatency {
		a.Violations = append(a.Violations, fmt.Sprintf("latency %v > %v", a.EstLatency, g.MaxLatency))
	}
	if g.MaxRiskFrac > 0 && a.RiskFrac > g.MaxRiskFrac {
		a.Violations = append(a.Violations, fmt.Sprintf("risk %.2f > %.2f", a.RiskFrac, g.MaxRiskFrac))
	}
	if g.MaxMembers > 0 && len(members) > g.MaxMembers {
		a.Violations = append(a.Violations, fmt.Sprintf("members %d > %d", len(members), g.MaxMembers))
	}
	a.Feasible = len(a.Violations) == 0
	return a
}

// compositeDiameter returns the hop diameter of the members' mutual
// radio graph (link when within min radio range) and whether the graph
// is connected. Empty or singleton sets are connected with diameter 0.
func compositeDiameter(members []Candidate) (int, bool) {
	n := len(members)
	if n <= 1 {
		return 0, true
	}
	adj := buildAdjacency(members)
	// BFS from node 0 for connectivity; track eccentricity from a few
	// sources for a diameter estimate (exact for trees, lower bound in
	// general — adequate for an assurance estimate).
	dist := bfsAll(adj, 0)
	maxD := 0
	far := 0
	for i, d := range dist {
		if d < 0 {
			return 0, false
		}
		if d > maxD {
			maxD, far = d, i
		}
	}
	// Second sweep from the farthest node tightens the estimate.
	dist2 := bfsAll(adj, far)
	for _, d := range dist2 {
		if d > maxD {
			maxD = d
		}
	}
	return maxD, true
}

func buildAdjacency(members []Candidate) [][]int {
	n := len(members)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := members[i].Caps.RadioRange
			if members[j].Caps.RadioRange < r {
				r = members[j].Caps.RadioRange
			}
			if members[i].Pos.Dist(members[j].Pos) <= r {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// bfsAll returns hop distances from src (-1 if unreachable).
func bfsAll(adj [][]int, src int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
