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

	// The link table: node id's neighbours are
	// neighbors[nbrStart[id]:nbrStart[id+1]], every list back to back in
	// id order in one array Refresh truncates and refills. ends is
	// Refresh's per-tick endpoint snapshot and cand its candidate scratch.
	neighbors []NodeID
	nbrStart  []int32
	ends      []endpoint
	cand      []NodeID
	version   uint64
	routes    map[[2]NodeID]routeEntry
	handlers  map[NodeID]Handler
	backlog   map[NodeID]backlogState

	// Traversal scratch shared by bfs, Component(s) and RouteGeo: a node
	// is visited when mark[id] == visit (see nextVisit); prev is bfs's
	// back-pointer table and queue its frontier.
	mark  []uint32
	prev  []NodeID
	queue []NodeID
	visit uint32

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
		eng:      eng,
		pop:      pop,
		terr:     terr,
		cfg:      cfg,
		rng:      eng.Stream("mesh"),
		routes:   make(map[[2]NodeID]routeEntry),
		handlers: make(map[NodeID]Handler),
		backlog:  make(map[NodeID]backlogState),
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

// endpoint is one node's link-relevant state: everything the link rule
// reads from an asset.
type endpoint struct {
	pos   geo.Point
	radio float64 // Caps.RadioRange
	jam   float64 // jamming intensity at pos, in [0,1]
	up    bool    // alive and online
}

// endpointOf reads a's link-relevant state now. A nil, dead or offline
// asset yields the zero endpoint, which links to nothing.
func (n *Network) endpointOf(a *asset.Asset) endpoint {
	if a == nil || !a.Alive() || !a.Online {
		return endpoint{}
	}
	p := a.Pos()
	return endpoint{pos: p, radio: a.Caps.RadioRange, jam: n.jamAt(p), up: true}
}

// rejectSlack widens link's squared-distance pre-reject far beyond
// float64 rounding (a few 1e-16 relative), so a pair the exact test
// would accept is never rejected early.
const rejectSlack = 1e-9

// link is the link rule, the only copy: two nodes are linked when both
// are up, no injected fault severs them, and their distance d is within
// the effective range r — the smaller radio range scaled by terrain
// clutter and by the worse of the two jamming intensities. r and d are
// meaningful only when ok.
//
// Both scale factors are at most 1, so a pair farther apart than the
// smaller radio range can never link; it is rejected on squared
// distance before any terrain, fault or Hypot work. Refresh scans every
// node within the *larger* range, so most of its candidates end here.
//
//iobt:hot
func (n *Network) link(a, b *endpoint) (r, d float64, ok bool) {
	if !a.up || !b.up {
		return 0, 0, false
	}
	r = min(a.radio, b.radio)
	if a.pos.Dist2(b.pos) > r*r*(1+rejectSlack) {
		return 0, 0, false
	}
	r *= n.terr.RangeFactor(a.pos, b.pos)
	r *= 1 - max(a.jam, b.jam)
	if r <= 0 || (n.linkFault != nil && n.linkFault(a.pos, b.pos)) {
		return 0, 0, false
	}
	d = a.pos.Dist(b.pos)
	return r, d, d <= r
}

// Linked reports whether a direct link exists between two nodes now.
func (n *Network) Linked(a, b NodeID) bool {
	ea, eb := n.endpointOf(n.pop.Get(a)), n.endpointOf(n.pop.Get(b))
	_, _, ok := n.link(&ea, &eb)
	return ok
}

// Refresh recomputes the neighbor table from current positions. It
// first snapshots every asset's endpoint (one liveness check, position
// read and jam-field evaluation per node rather than per candidate
// pair), then scans each up node's grid candidates against the snapshot.
// A node's list keeps the order asset.Population.Near returned its
// candidates in. All storage is reused, so a steady-state refresh
// allocates nothing.
//
//iobt:hot
func (n *Network) Refresh() {
	n.invalidate()
	all := n.pop.All()
	for len(n.ends) < len(all) {
		n.ends = append(n.ends, endpoint{})
	}
	for len(n.nbrStart) < len(all)+1 {
		n.nbrStart = append(n.nbrStart, 0)
	}
	for i, a := range all {
		n.ends[i] = n.endpointOf(a)
	}
	n.neighbors = n.neighbors[:0]
	for i := range all {
		n.nbrStart[i] = int32(len(n.neighbors))
		a := &n.ends[i]
		if !a.up {
			continue
		}
		n.cand = n.pop.Near(n.cand[:0], a.pos, a.radio)
		for _, id := range n.cand {
			if int(id) == i {
				continue
			}
			if _, _, ok := n.link(a, &n.ends[id]); ok {
				n.neighbors = append(n.neighbors, id)
			}
		}
	}
	n.nbrStart[len(all)] = int32(len(n.neighbors))
}

// Neighbors returns the current neighbor list of id (empty for a node
// with no link or an unknown id). The slice aliases the network's
// table: callers must not mutate it, and it is valid only until the next
// Refresh, which refills the same array. Copy it to keep it across an
// engine event.
func (n *Network) Neighbors(id NodeID) []NodeID {
	if id < 0 || int(id)+1 >= len(n.nbrStart) {
		return nil
	}
	lo, hi := n.nbrStart[id], n.nbrStart[id+1]
	return n.neighbors[lo:hi:hi]
}

// Nodes returns the IDs that currently have at least one link,
// in ascending order. Used by overlays (gossip, spanning tree).
func (n *Network) Nodes() []NodeID {
	var out []NodeID
	for id := 0; id+1 < len(n.nbrStart); id++ {
		if n.nbrStart[id+1] > n.nbrStart[id] {
			out = append(out, NodeID(id))
		}
	}
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
