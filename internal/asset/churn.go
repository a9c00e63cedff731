package asset

import (
	"fmt"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// ChurnConfig parameterizes the asset lifecycle process. The paper (§III)
// states that "the large scale of IoBTs implies continuous churn, so
// discovery and composition solutions will need to be robust to failure
// or removal of assets as a normal operating regime."
type ChurnConfig struct {
	// FailRatePerMin is the fraction of the alive population that fails
	// per simulated minute (battery death, destruction, capture).
	FailRatePerMin float64
	// ArriveRatePerMin is the expected number of new assets arriving per
	// simulated minute.
	ArriveRatePerMin float64
}

const (
	churnTick  = 5 * time.Second
	reviveProb = 0.5 // an arrival's chance to redeploy a failed asset
)

// Churn drives stochastic failures and arrivals on a population. Create
// it with NewChurn and start it with Start; it schedules itself on the
// engine until stopped.
type Churn struct {
	cfg    ChurnConfig
	pop    *Population
	eng    *sim.Engine
	rng    *sim.RNG
	ticker *sim.Ticker

	// OnFail and OnArrive, when set, are invoked after each lifecycle
	// event so higher layers (discovery, composition) can react.
	OnFail   func(ID)
	OnArrive func(ID)

	failed  sim.Counter
	arrived sim.Counter
	dead    []ID
}

// NewChurn returns an unstarted churn process.
func NewChurn(eng *sim.Engine, pop *Population, cfg ChurnConfig) *Churn {
	return &Churn{
		cfg: cfg,
		pop: pop,
		eng: eng,
		rng: eng.Stream("churn"),
	}
}

// Failed returns the number of failure events so far.
func (c *Churn) Failed() uint64 { return c.failed.Value() }

// Arrived returns the number of arrival events so far.
func (c *Churn) Arrived() uint64 { return c.arrived.Value() }

// Start begins the lifecycle process.
func (c *Churn) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = c.eng.Every(churnTick, "churn", c.tick)
}

// Stop halts the lifecycle process.
func (c *Churn) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

func (c *Churn) tick() {
	mins := churnTick.Minutes()

	// Failures: binomial over alive assets, approximated per-asset.
	pFail := c.cfg.FailRatePerMin * mins
	if pFail > 0 {
		for _, a := range c.pop.All() {
			if !a.Alive() {
				continue
			}
			if c.rng.Bool(pFail) {
				c.pop.Kill(a.ID)
				c.dead = append(c.dead, a.ID)
				c.failed.Inc()
				if c.OnFail != nil {
					c.OnFail(a.ID)
				}
			}
		}
	}

	// Arrivals: Poisson count this tick.
	nArrive := c.rng.Poisson(c.cfg.ArriveRatePerMin * mins)
	for i := 0; i < nArrive; i++ {
		id := c.arriveOne()
		c.arrived.Inc()
		if c.OnArrive != nil {
			c.OnArrive(id)
		}
	}
}

func (c *Churn) arriveOne() ID {
	if len(c.dead) > 0 && c.rng.Bool(reviveProb) {
		id := c.dead[len(c.dead)-1]
		c.dead = c.dead[:len(c.dead)-1]
		c.pop.Revive(id)
		return id
	}
	// Otherwise, a fresh commodity-class asset parachutes in.
	terr := c.pop.Terrain()
	classes := []Class{ClassMote, ClassPhone, ClassSensor, ClassUAV}
	cl := classes[c.rng.Intn(len(classes))]
	a := &Asset{
		Affiliation: Blue,
		Class:       cl,
		Caps:        DefaultCaps(cl),
		DutyCycle:   1,
		Online:      true,
		Emission:    c.rng.Uniform(0.1, 1.0),
	}
	a.Energy = a.Caps.EnergyCap
	start := terr.RandomPoint(c.rng)
	if cl == ClassUAV || cl == ClassPhone {
		a.Mobility = geo.NewRandomWaypoint(terr, c.rng.Derive(fmt.Sprintf("arr%d", c.arrived.Value())), start, 1, 8, 10*time.Second)
	} else {
		a.Mobility = &geo.Static{P: start}
	}
	if c.rng.Bool(0.1) {
		a.Affiliation = Gray
	}
	return c.pop.Add(a)
}
