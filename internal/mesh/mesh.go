// Package mesh simulates the wireless network that connects IoBT assets:
// range- and terrain-dependent links, topology dynamics under mobility
// and churn, jamming, per-hop loss and latency, bandwidth queueing, and
// multi-hop routing.
//
// The paper (§II) requires forward-deployed networks of disadvantaged
// assets with "limitations on energy, power, storage, and bandwidth" and
// no fixed infrastructure; mesh is that substrate.
package mesh

import (
	"fmt"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// NodeID aliases asset.ID: network endpoints are assets.
type NodeID = asset.ID

// Config parameterizes the radio and protocol model.
type Config struct {
	// NeighborRefresh is the cadence of topology recomputation (and
	// mobility stepping if StepMobility is set).
	NeighborRefresh time.Duration
	// StepMobility makes the network advance asset mobility on each
	// refresh tick.
	StepMobility bool
	// DrainIdle makes the refresh tick also charge idle energy (scaled
	// by duty cycle), so battery-limited assets die over mission time.
	DrainIdle bool
	// LossBase is the per-hop loss probability at the edge of radio
	// range (loss falls off quadratically closer in).
	LossBase float64
}

// The radio model's fixed parameters.
const (
	// baseLatency is per-hop propagation plus processing delay.
	baseLatency = 5 * time.Millisecond
	// energyPerByte is the transmission energy cost in joules/byte.
	energyPerByte = 1e-6
	maxHops       = 64 // route length bound
)

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		NeighborRefresh: time.Second,
		StepMobility:    true,
		LossBase:        0.1,
	}
}

// Message is a unit of application data routed over the mesh.
type Message struct {
	From, To NodeID
	// Size is the payload size in bytes (affects queueing and energy).
	Size float64
	// Kind tags the message for handlers ("report", "cmd", "grad", ...).
	Kind string
	// Payload carries arbitrary application data.
	Payload any
	// Hops counts traversed links; filled in at delivery.
	Hops int
	// Sent is the virtual send time; filled in by Send.
	Sent time.Duration
	// Corrupted marks a frame mangled in flight by an injected fault;
	// its kind and payload are destroyed before delivery.
	Corrupted bool
}

// Handler consumes messages delivered to a node.
type Handler func(Message)

// Network is the simulated mesh.
type Network struct {
	eng  *sim.Engine
	pop  *asset.Population
	terr *geo.Terrain
	cfg  Config
	rng  *sim.RNG

	neighbors map[NodeID][]NodeID
	version   uint64
	routes    map[[2]NodeID]routeEntry
	handlers  map[NodeID]Handler
	backlog   map[NodeID]backlogState

	// jamming, when set, returns the jamming intensity [0,1] at a point;
	// links shrink by that factor. attack.Field provides this.
	jamming func(geo.Point) float64
	// linkFault, when set, reports whether the link between two
	// positions is severed by an injected fault (e.g. a partition).
	// internal/fault provides this.
	linkFault func(a, b geo.Point) bool
	// hopFault, when set, is consulted once per hop and may drop,
	// corrupt, or delay the frame. internal/fault provides this.
	hopFault func(*Message) HopEffect

	ticker *sim.Ticker

	// Metrics. Every message accepted by Send/SendDirect/SendGeo (and
	// each per-neighbor copy fanned out by Broadcast) increments Sent
	// and reaches exactly one terminal counter — Delivered, Dropped, or
	// NoRoute — unless it is still traversing hops (InFlight). The
	// conservation law Delivered+Dropped+NoRoute+InFlight == Sent is
	// checked continuously by the chaos and failover tests; see
	// CheckConservation.
	Delivered  sim.Counter
	Sent       sim.Counter
	Dropped    sim.Counter
	NoRoute    sim.Counter
	Corrupted  sim.Counter
	LatencySec sim.Series
	HopCount   sim.Series

	// inFlight counts messages currently traversing hops: accepted for
	// forwarding but not yet delivered or dropped.
	inFlight int
}

// CheckConservation verifies the message conservation law:
//
//	Delivered + Dropped + NoRoute + InFlight == Sent
//
// Nothing the network accepts may vanish without a terminal account —
// not across jamming, kill waves, or a command-post crash/restore. The
// fault harness runs this as a continuous invariant.
func (n *Network) CheckConservation() error {
	accounted := n.Delivered.Value() + n.Dropped.Value() + n.NoRoute.Value() + uint64(n.inFlight)
	if accounted != n.Sent.Value() {
		return fmt.Errorf("mesh: conservation violated: delivered %d + dropped %d + noroute %d + inflight %d = %d != sent %d",
			n.Delivered.Value(), n.Dropped.Value(), n.NoRoute.Value(), n.inFlight, accounted, n.Sent.Value())
	}
	return nil
}

// HopEffect is a per-hop fault verdict returned by the hop-fault hook.
type HopEffect struct {
	// Drop discards the frame at this hop.
	Drop bool
	// Corrupt marks the frame corrupted: it is still delivered, but with
	// its kind and payload destroyed, so handlers must tolerate garbage.
	Corrupt bool
	// Delay adds extra latency to this hop.
	Delay time.Duration
}

type routeEntry struct {
	path    []NodeID
	version uint64
}

type backlogState struct {
	bytes float64
	asOf  time.Duration
}

// New builds a network over pop on terr, driven by eng. Call Start to
// begin topology maintenance.
func New(eng *sim.Engine, pop *asset.Population, terr *geo.Terrain, cfg Config) *Network {
	n := &Network{
		eng:       eng,
		pop:       pop,
		terr:      terr,
		cfg:       cfg,
		rng:       eng.Stream("mesh"),
		neighbors: make(map[NodeID][]NodeID),
		routes:    make(map[[2]NodeID]routeEntry),
		handlers:  make(map[NodeID]Handler),
		backlog:   make(map[NodeID]backlogState),
	}
	n.Refresh()
	return n
}

// SetJamming installs the jamming intensity field. Passing nil clears it.
func (n *Network) SetJamming(f func(geo.Point) float64) {
	n.jamming = f
	n.invalidate()
}

// SetLinkFault installs the link-severing fault hook. Passing nil
// clears it. Callers should Refresh after changing fault state so the
// neighbor table reflects the cut links.
func (n *Network) SetLinkFault(f func(a, b geo.Point) bool) {
	n.linkFault = f
	n.invalidate()
}

// SetHopFault installs the per-hop fault hook. Passing nil clears it.
func (n *Network) SetHopFault(f func(*Message) HopEffect) { n.hopFault = f }

// Start begins periodic topology refresh.
func (n *Network) Start() {
	if n.ticker != nil {
		return
	}
	n.ticker = n.eng.Every(n.cfg.NeighborRefresh, "mesh.refresh", func() {
		if n.cfg.StepMobility {
			n.pop.StepMobility(n.cfg.NeighborRefresh)
		}
		if n.cfg.DrainIdle {
			n.pop.StepEnergy(n.cfg.NeighborRefresh)
		}
		n.Refresh()
	})
}

// Stop halts topology maintenance.
func (n *Network) Stop() {
	if n.ticker != nil {
		n.ticker.Stop()
		n.ticker = nil
	}
}

// Version returns the topology version; it increments on every refresh
// and invalidation so callers can cache derived structures.
func (n *Network) Version() uint64 { return n.version }

func (n *Network) invalidate() {
	n.version++
	// Route entries are validated lazily against version.
}

// jamAt returns jamming intensity at p, in [0,1].
func (n *Network) jamAt(p geo.Point) float64 {
	if n.jamming == nil {
		return 0
	}
	v := n.jamming(p)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// linkRange returns the effective communication range between two
// assets, accounting for terrain clutter and jamming, or 0 if either
// node cannot link.
func (n *Network) linkRange(a, b *asset.Asset) float64 {
	if a == nil || b == nil || !a.Alive() || !b.Alive() || !a.Online || !b.Online {
		return 0
	}
	r := a.Caps.RadioRange
	if b.Caps.RadioRange < r {
		r = b.Caps.RadioRange
	}
	pa, pb := a.Pos(), b.Pos()
	r *= n.terr.RangeFactor(pa, pb)
	jam := n.jamAt(pa)
	if j := n.jamAt(pb); j > jam {
		jam = j
	}
	r *= 1 - jam
	if r > 0 && n.linkFault != nil && n.linkFault(pa, pb) {
		return 0
	}
	return r
}

// Linked reports whether a direct link exists between two nodes now.
func (n *Network) Linked(a, b NodeID) bool {
	aa, bb := n.pop.Get(a), n.pop.Get(b)
	if aa == nil || bb == nil {
		return false
	}
	r := n.linkRange(aa, bb)
	return r > 0 && aa.Pos().Dist(bb.Pos()) <= r
}

// Refresh recomputes the neighbor table from current positions.
func (n *Network) Refresh() {
	n.invalidate()
	for k := range n.neighbors {
		delete(n.neighbors, k)
	}
	var scratch []asset.ID
	for _, a := range n.pop.All() {
		if !a.Alive() || !a.Online {
			continue
		}
		scratch = scratch[:0]
		scratch = n.pop.Near(scratch, a.Pos(), a.Caps.RadioRange)
		var nbrs []NodeID
		for _, id := range scratch {
			if id == a.ID {
				continue
			}
			b := n.pop.Get(id)
			r := n.linkRange(a, b)
			if r > 0 && a.Pos().Dist(b.Pos()) <= r {
				nbrs = append(nbrs, id)
			}
		}
		if len(nbrs) > 0 {
			n.neighbors[a.ID] = nbrs
		}
	}
}

// Neighbors returns the current neighbor list of id. The returned slice
// is owned by the network; callers must not mutate it.
func (n *Network) Neighbors(id NodeID) []NodeID { return n.neighbors[id] }

// Nodes returns the IDs that currently have at least one link,
// in ascending order. Used by overlays (gossip, spanning tree).
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, 0, len(n.neighbors))
	for id := range n.neighbors {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

// RegisterHandler sets the delivery callback for a node, replacing any
// previous handler.
func (n *Network) RegisterHandler(id NodeID, h Handler) { n.handlers[id] = h }

// Handler returns the currently registered delivery handler for id (nil
// when none). Overlays that take over a node's handler use it to chain
// the previous one rather than silently dropping its traffic.
func (n *Network) Handler(id NodeID) Handler { return n.handlers[id] }

// UnregisterHandler removes a node's handler.
func (n *Network) UnregisterHandler(id NodeID) { delete(n.handlers, id) }
