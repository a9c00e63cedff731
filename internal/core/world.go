// Package core assembles the substrates into the paper's IoBT runtime:
// a battlefield world, mission specifications expressed as commander's
// intent, synthesis of composite assets (Challenge 1), reflexive
// adaptive execution (Challenge 2), and learning hooks (Challenge 3).
//
// The runtime's central measurable is the decision loop: the time from
// a battlefield incident to an authorized action. Two command models are
// implemented — classic multi-level hierarchy and command-by-intent —
// so experiment E1 can quantify the paper's motivating claim that
// intent-based autonomy "shortens the decision loop".
package core

import (
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/trust"
)

// WorldConfig parameterizes world construction.
type WorldConfig struct {
	Seed int64
	// Terrain selects the map. Nil defaults to a 2km urban grid.
	Terrain *geo.Terrain
	// Assets is the approximate population size.
	Assets int
	// Mesh overrides the default network config when non-nil.
	Mesh *mesh.Config
	// Churn, when non-nil, starts an asset lifecycle process.
	Churn *asset.ChurnConfig
}

// World bundles the simulated battlefield: engine, terrain, population,
// network, jamming field, and the trust ledger.
type World struct {
	Eng     *sim.Engine
	Terrain *geo.Terrain
	Pop     *asset.Population
	Net     *mesh.Network
	Jam     *attack.Field
	Smoke   *attack.Obscurants
	Trust   *trust.Ledger
	Churn   *asset.Churn
}

// NewWorld builds and wires a world. The network's topology maintenance
// is started; call World.Stop when done.
func NewWorld(cfg WorldConfig) *World {
	eng := sim.NewEngine(cfg.Seed)
	terr := cfg.Terrain
	if terr == nil {
		terr = geo.NewUrbanTerrain(2000, 2000)
	}
	if cfg.Assets <= 0 {
		cfg.Assets = 200
	}
	pop := asset.Generate(terr, asset.DefaultMix(cfg.Assets), eng.Stream("gen"))

	mcfg := mesh.DefaultConfig()
	if cfg.Mesh != nil {
		mcfg = *cfg.Mesh
	}
	net := mesh.New(eng, pop, terr, mcfg)
	jam := attack.NewField(eng)
	net.SetJamming(jam.At)
	net.Start()

	w := &World{
		Eng:     eng,
		Terrain: terr,
		Pop:     pop,
		Net:     net,
		Jam:     jam,
		Smoke:   attack.NewObscurants(eng),
		Trust:   trust.NewLedger(),
	}
	if cfg.Churn != nil {
		w.Churn = asset.NewChurn(eng, pop, *cfg.Churn)
		w.Churn.Start()
	}
	return w
}

// Stop halts background processes (network refresh, churn).
func (w *World) Stop() {
	w.Net.Stop()
	if w.Churn != nil {
		w.Churn.Stop()
	}
}

// FaultTarget bundles the world's surfaces as the target a fault plan
// acts on. A non-nil r adds the mission runtime's hooks: composite kill
// waves, command-post resolution, the crash-post/failover verbs, and the
// goodput (on-time actions vs. incidents) and recovery counters fault.Run
// samples.
func (w *World) FaultTarget(r *Runtime) fault.Target {
	t := fault.Target{Eng: w.Eng, Pop: w.Pop, Net: w.Net, Jam: w.Jam, Smoke: w.Smoke}
	if r != nil {
		t.Composite = func() []asset.ID { return r.Composite().Members }
		t.CommandPost = r.Sink
		t.CrashPost = r.CrashPost
		t.Failover = r.Failover
		t.Goodput = func() (uint64, uint64) { return r.Metrics.OnTime.Value(), r.Metrics.Incidents.Value() }
		t.Recovery = r.recoveryHooks()
	}
	return t
}

// Run advances the world by the given horizon.
func (w *World) Run(horizon time.Duration) error { return w.Eng.Run(horizon) }

// PickCommandPost returns the alive blue asset with the most compute
// (the edge server acting as the command post), or None.
func (w *World) PickCommandPost() asset.ID {
	best := asset.None
	bestC := -1.0
	for _, a := range w.Pop.All() {
		if !a.Alive() || a.Affiliation != asset.Blue {
			continue
		}
		if a.Caps.Compute > bestC {
			best, bestC = a.ID, a.Caps.Compute
		}
	}
	return best
}
