package asset

import (
	"fmt"
	"sort"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// Mix describes the composition of a generated population: how many of
// each class, and the red/gray fractions among them.
type Mix struct {
	Counts map[Class]int
	// RedFrac and GrayFrac are the fractions of the population (after
	// class assignment) that are adversarial and neutral respectively;
	// the remainder is blue. Humans and phones are preferentially
	// assigned gray, and motes/phones red, matching the paper's picture
	// of commodity devices with mixed control.
	RedFrac, GrayFrac float64
	// MobileFrac is the fraction of non-fixed classes given random
	// waypoint mobility (the rest are static).
	MobileFrac float64
	// SpeedMin/SpeedMax bound mobile node speeds in m/s.
	SpeedMin, SpeedMax float64
}

// DefaultMix returns a heterogeneous population of roughly n assets with
// a composition matched to the paper's urban-operations scenario.
func DefaultMix(n int) Mix {
	if n < 10 {
		n = 10
	}
	return Mix{
		Counts: map[Class]int{
			ClassMote:       n * 30 / 100,
			ClassSensor:     n * 15 / 100,
			ClassPhone:      n * 25 / 100,
			ClassWearable:   n * 10 / 100,
			ClassUAV:        n * 5 / 100,
			ClassRobot:      n * 4 / 100,
			ClassVehicle:    n * 4 / 100,
			ClassEdgeServer: max(1, n*2/100),
			ClassHuman:      n * 5 / 100,
		},
		RedFrac:    0.10,
		GrayFrac:   0.25,
		MobileFrac: 0.4,
		SpeedMin:   0.5,
		SpeedMax:   8,
	}
}

// Population is the set of assets in one world plus a spatial index over
// the alive ones.
type Population struct {
	assets []*Asset
	grid   *geo.Grid
	terr   *geo.Terrain
	// near is Near's candidate scratch. A population belongs to one world
	// and one goroutine (the service gives each mission its own).
	near []int32
}

// NewPopulation returns an empty population on terr; add assets with Add.
func NewPopulation(terr *geo.Terrain) *Population {
	return &Population{grid: geo.NewGrid(terr.Bounds, 0), terr: terr}
}

// Generate creates a population on terrain according to mix, using rng
// for all placement and class randomness.
func Generate(terr *geo.Terrain, mix Mix, rng *sim.RNG) *Population {
	p := &Population{
		grid: geo.NewGrid(terr.Bounds, 0),
		terr: terr,
	}
	classes := make([]Class, 0, len(mix.Counts))
	for c := range mix.Counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	var all []*Asset
	for _, c := range classes {
		for i := 0; i < mix.Counts[c]; i++ {
			a := &Asset{
				ID:          ID(len(all)),
				Affiliation: Blue,
				Class:       c,
				Caps:        DefaultCaps(c),
				DutyCycle:   1,
				Online:      true,
			}
			a.Energy = a.Caps.EnergyCap
			start := terr.RandomPoint(rng)
			mobileClass := c == ClassUAV || c == ClassRobot || c == ClassVehicle ||
				c == ClassPhone || c == ClassHuman || c == ClassWearable
			if mobileClass && rng.Bool(mix.MobileFrac) {
				a.Mobility = geo.NewRandomWaypoint(terr, rng.Derive(fmt.Sprintf("mob%d", a.ID)),
					start, mix.SpeedMin, mix.SpeedMax, 30*time.Second)
			} else {
				a.Mobility = &geo.Static{P: start}
			}
			// Emission signature: commodity devices are chattier.
			switch c {
			case ClassPhone, ClassHuman, ClassWearable:
				a.Emission = rng.Uniform(0.5, 1.0)
			default:
				a.Emission = rng.Uniform(0.1, 0.6)
			}
			all = append(all, a)
		}
	}

	// Assign affiliations: a weighted lottery biased by class.
	assignAffiliations(all, mix, rng)

	p.assets = all
	for _, a := range all {
		p.grid.Insert(int32(a.ID), a.Pos())
	}
	return p
}

func assignAffiliations(all []*Asset, mix Mix, rng *sim.RNG) {
	n := len(all)
	nRed := int(mix.RedFrac * float64(n))
	nGray := int(mix.GrayFrac * float64(n))
	// Build a weighted candidate order: gray prefers phones/humans, red
	// prefers motes/phones. Do it by scoring with jitter then sorting.
	grayScore := func(a *Asset) float64 {
		s := rng.Float64()
		if a.Class == ClassPhone || a.Class == ClassHuman || a.Class == ClassWearable {
			s += 1
		}
		return s
	}
	order := make([]*Asset, n)
	copy(order, all)
	scores := make(map[ID]float64, n)
	for _, a := range order {
		scores[a.ID] = grayScore(a)
	}
	sort.Slice(order, func(i, j int) bool { return scores[order[i].ID] > scores[order[j].ID] })
	for i := 0; i < nGray && i < n; i++ {
		order[i].Affiliation = Gray
	}
	// Red from the remaining blue pool, biased toward motes/phones.
	var pool []*Asset
	for _, a := range all {
		if a.Affiliation == Blue {
			pool = append(pool, a)
		}
	}
	redScores := make(map[ID]float64, len(pool))
	for _, a := range pool {
		s := rng.Float64()
		if a.Class == ClassMote || a.Class == ClassPhone {
			s += 0.7
		}
		redScores[a.ID] = s
	}
	sort.Slice(pool, func(i, j int) bool { return redScores[pool[i].ID] > redScores[pool[j].ID] })
	for i := 0; i < nRed && i < len(pool); i++ {
		pool[i].Affiliation = Red
	}
}

// Len returns the total number of assets ever added (including dead).
func (p *Population) Len() int { return len(p.assets) }

// Get returns the asset with the given ID, or nil.
func (p *Population) Get(id ID) *Asset {
	if id < 0 || int(id) >= len(p.assets) {
		return nil
	}
	return p.assets[id]
}

// All returns the underlying asset slice. Callers must not mutate the
// slice structure (elements are shared by design — the population is the
// single source of truth for asset state).
func (p *Population) All() []*Asset { return p.assets }

// Terrain returns the terrain the population inhabits.
func (p *Population) Terrain() *geo.Terrain { return p.terr }

// Add inserts an externally constructed asset, assigning it the next ID.
// It returns the assigned ID.
func (p *Population) Add(a *Asset) ID {
	a.ID = ID(len(p.assets))
	if a.Mobility == nil {
		a.Mobility = &geo.Static{}
	}
	p.assets = append(p.assets, a)
	if a.Alive() {
		p.grid.Insert(int32(a.ID), a.Pos())
	}
	return a.ID
}

// Kill marks an asset dead and removes it from the spatial index.
func (p *Population) Kill(id ID) {
	a := p.Get(id)
	if a == nil {
		return
	}
	a.Energy = 0
	a.Online = false
	p.grid.Remove(int32(id))
}

// Revive restores an asset to full energy and reindexes it.
func (p *Population) Revive(id ID) {
	a := p.Get(id)
	if a == nil {
		return
	}
	a.Energy = a.Caps.EnergyCap
	a.Online = true
	p.grid.Insert(int32(id), a.Pos())
}

// StepMobility advances every alive asset's mobility by dt and updates
// the spatial index.
func (p *Population) StepMobility(dt time.Duration) {
	for _, a := range p.assets {
		if !a.Alive() || a.Mobility == nil {
			continue
		}
		np := a.Mobility.Step(dt)
		p.grid.Move(int32(a.ID), np)
	}
}

// Near appends the IDs of alive assets within radius of pt to dst, in
// the grid's scan order (see geo.Grid.Near).
func (p *Population) Near(dst []ID, pt geo.Point, radius float64) []ID {
	p.near = p.grid.Near(p.near[:0], pt, radius)
	for _, r := range p.near {
		a := p.assets[r]
		if a.Alive() {
			dst = append(dst, ID(r))
		}
	}
	return dst
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// StepEnergy drains every alive asset's idle power for dt, scaled by its
// duty cycle (sleeping hardware draws ~nothing). Nodes whose battery
// empties die and leave the spatial index — the paper's "disadvantaged
// assets with limitations on energy" becoming churn.
func (p *Population) StepEnergy(dt time.Duration) int {
	died := 0
	for _, a := range p.assets {
		if !a.Alive() {
			continue
		}
		duty := a.DutyCycle
		if duty <= 0 || duty > 1 {
			duty = 1
		}
		if !a.Drain(a.Caps.IdlePower * duty * dt.Seconds()) {
			p.grid.Remove(int32(a.ID))
			died++
		}
	}
	return died
}
