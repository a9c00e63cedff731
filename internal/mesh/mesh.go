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
	"math/bits"
	"slices"
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
	// neighbors[nbrStart[id]:nbrStart[id+1]], ascending, every list back
	// to back in id order in one array Refresh refills.
	neighbors []NodeID
	nbrStart  []int32
	// Refresh's working state, all reused from tick to tick: the endpoint
	// snapshot and which nodes it found unchanged, the cell index over
	// it, the geometric candidate pairs carried to the next tick with
	// one bit each for "linked this tick", and the two scratch arrays
	// that turn linked pairs into sorted lists.
	ends   []endpoint
	stable []bool
	cells  cellIndex
	pairs  []pair
	linked []uint64
	bySrc  []NodeID
	cursor []int32

	version  uint64
	routes   map[[2]NodeID]routeEntry
	handlers map[NodeID]Handler
	backlog  map[NodeID]backlogState

	// Traversal scratch shared by bfs and Components: a node is visited
	// when mark[id] == visit (see nextVisit); prev is bfs's back-pointer
	// table and queue its frontier.
	mark  []uint32
	prev  []NodeID
	queue []NodeID
	visit uint32

	// jamming, when set, returns the jamming intensity [0,1] at a point;
	// links shrink by that factor. attack.Field provides this.
	jamming func(geo.Point) float64
	// linkFault, when set, returns the cut predicate in force now — it
	// reports whether an injected fault (e.g. a partition) severs the
	// link between two positions — or nil when nothing is cut.
	// internal/fault provides this.
	linkFault func() func(a, b geo.Point) bool
	// hopFault, when set, is consulted once per hop and may drop,
	// corrupt, or delay the frame. internal/fault provides this.
	hopFault func(*Message) HopEffect

	ticker *sim.Ticker

	// Metrics. Every message accepted by Send/SendDirect increments Sent
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
		cells:    newCellIndex(terr.Bounds),
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
// neighbor table reflects the cut links. The hook returns the cut
// predicate in force at the current virtual time, or nil when no link is
// cut; it is asked once per Refresh and once per Linked or forwarded
// hop, and the predicate it returns is used only until the next ask.
// The predicate must be symmetric, cut(a, b) == cut(b, a): a pair is
// asked about once, with the position of the lower node id as a.
func (n *Network) SetLinkFault(f func() func(a, b geo.Point) bool) {
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

// invalidate bumps the topology version on every refresh and fault
// change; Route validates cached paths against it lazily.
func (n *Network) invalidate() { n.version++ }

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

// rejectSlack widens the squared-distance pre-reject far beyond float64
// rounding (a few 1e-16 relative), so a pair the exact test would accept
// is never rejected early.
const rejectSlack = 1e-9

// The link rule, the only copy: two nodes are linked when both are up,
// no injected fault severs them, and their distance d is within the
// effective range r — the smaller radio range scaled by terrain clutter
// and by the worse of the two jamming intensities. It is written in two
// halves so that Refresh can keep the first across ticks: linkGeometry
// reads only positions and radio ranges (the terrain never changes),
// linkNow reads what can change under a node that stands still — the jam
// field, through the snapshot, and the cut predicate the fault hook
// returned for this instant, both functions of virtual time. Every
// operand is symmetric in the two endpoints, so a pair needs one
// evaluation. link, for Linked and forward, is the two in sequence.

// linkGeometry returns the pair's distance d and its range before
// jamming, rBase = the smaller radio range × terrain clutter. ok is false
// when the pair cannot link under any jam field: both scale factors are
// at most 1, so a pair farther apart than the smaller radio range is
// rejected on squared distance before any terrain or Hypot work, and one
// farther apart than rBase after it.
//
//iobt:hot
func (n *Network) linkGeometry(a, b *endpoint) (rBase, d float64, ok bool) {
	if tooFar(a.pos, b.pos, a.radio, b.radio) {
		return 0, 0, false
	}
	r := min(a.radio, b.radio) * n.terr.RangeFactor(a.pos, b.pos)
	d = a.pos.Dist(b.pos)
	return r, d, d <= r
}

// tooFar is linkGeometry's pre-reject: no pair farther apart than the
// smaller of its two radio ranges can link.
func tooFar(p, q geo.Point, rp, rq float64) bool {
	r := min(rp, rq)
	return p.Dist2(q) > r*r*(1+rejectSlack)
}

// cutNow asks the fault hook for the cut predicate in force now: nil
// when no hook is installed or nothing is cut.
func (n *Network) cutNow() func(a, b geo.Point) bool {
	if n.linkFault == nil {
		return nil
	}
	return n.linkFault()
}

// linkNow finishes the rule for a pair of up nodes linkGeometry passed:
// the effective range r, and whether the link exists at this instant,
// under cut, the predicate cutNow returned for it.
//
//iobt:hot
func linkNow(a, b *endpoint, rBase, d float64, cut func(a, b geo.Point) bool) (r float64, ok bool) {
	r = rBase * (1 - max(a.jam, b.jam))
	if r <= 0 || (cut != nil && cut(a.pos, b.pos)) {
		return 0, false
	}
	return r, d <= r
}

// link evaluates the whole rule on the live state of two nodes, lower
// id first. r and d are meaningful only when ok.
func (n *Network) link(a, b NodeID) (r, d float64, ok bool) {
	if a > b {
		a, b = b, a
	}
	ea, eb := n.endpointOf(n.pop.Get(a)), n.endpointOf(n.pop.Get(b))
	if !ea.up || !eb.up {
		return 0, 0, false
	}
	rBase, d, ok := n.linkGeometry(&ea, &eb)
	if !ok {
		return 0, 0, false
	}
	r, ok = linkNow(&ea, &eb, rBase, d, n.cutNow())
	return r, d, ok
}

// Linked reports whether a direct link exists between two nodes now.
func (n *Network) Linked(a, b NodeID) bool {
	_, _, ok := n.link(a, b)
	return ok
}

// pair is one unordered pair of up nodes that linkGeometry passed, with
// what it returned: everything about the pair that cannot change while
// both nodes stand still.
type pair struct {
	i, j  int32 // i < j
	d     float64
	rBase float64
}

// Refresh recomputes the neighbor table from current state, by three
// rules.
//
// Pair once: the link rule is symmetric, so each unordered pair is
// evaluated one time and written into both lists.
//
// Carry what did not move: a node is stable when its snapshot (position,
// radio range, up) equals last tick's by value and it was up in both.
// The geometric half of the rule for two stable nodes cannot have
// changed, so their pairs are kept from last tick and only linkNow is
// replayed; every other up node looks its pairs up afresh in a cell
// index over the snapshot. Stability is read off the assets themselves,
// the jam field is re-read for every node and the fault hook asked once,
// every tick, so nothing has to tell the network that something changed.
//
// Canonical order: every list is ascending by id, so the table is a
// function of current state alone — not of the order pairs were found
// in, the cell size, or any earlier tick (TestRefreshIsHistoryFree).
//
// All storage is reused, so a steady-state refresh allocates nothing;
// a buffer that must grow is sized once from a count, with a quarter of
// headroom.
//
//iobt:hot
func (n *Network) Refresh() {
	cut := n.cutNow()
	n.invalidate()
	n.snapshot()
	kept := n.carry()
	if need := n.scan(kept); need > cap(n.pairs) {
		n.pairs = growTo(n.pairs[:kept], need)
		n.scan(kept)
	}
	n.buildTable(cut)
}

// growTo returns s with capacity for need elements and a quarter more.
func growTo[S ~[]E, E any](s S, need int) S {
	return slices.Grow(s, need+need/4-len(s))
}

// snapshot reads every asset's endpoint once (one liveness check,
// position read and jam-field evaluation per node rather than per pair),
// marks the nodes whose snapshot did not change, and indexes the up ones.
//
//iobt:hot
func (n *Network) snapshot() {
	all := n.pop.All()
	if had := len(n.ends); len(n.nbrStart) != len(all)+1 {
		// First call, or the population grew: a newcomer's last endpoint
		// is the zero one, down, so it starts unstable.
		n.ends = slices.Grow(n.ends, len(all)-had)[:len(all)]
		clear(n.ends[had:])
		n.stable = slices.Grow(n.stable[:0], len(all))[:len(all)]
		n.cursor = slices.Grow(n.cursor[:0], len(all))[:len(all)]
		n.nbrStart = slices.Grow(n.nbrStart[:0], len(all)+1)[:len(all)+1]
	}
	for i, a := range all {
		e, was := n.endpointOf(a), &n.ends[i]
		n.stable[i] = e.up && was.up && e.pos == was.pos && e.radio == was.radio
		*was = e
	}
	n.cells.build(n.ends)
}

// carry keeps, in place and in order, last tick's pairs whose nodes are
// both stable, and returns how many.
//
//iobt:hot
func (n *Network) carry() int {
	kept := 0
	for _, p := range n.pairs {
		if n.stable[p.i] && n.stable[p.j] {
			n.pairs[kept] = p
			kept++
		}
	}
	return kept
}

// scan appends to pairs[:kept] the pairs of every up node that is not
// stable and returns the total. A pair of two such nodes is found from
// its lower id; a stable partner never scans. It stores only while
// capacity lasts but counts regardless, so a return above cap(pairs)
// is the exact size to grow to before scanning again.
//
// The query box is the node's own radio range: the rule caps a pair at
// the smaller of its two ranges, so nothing farther can link. An indexed
// point carries its radio range so that tooFar, the rule's own
// pre-reject, settles most of the box from the packed run, before the
// partner's endpoint is touched. A node without a positive range links
// to nothing and is skipped: its box would be inside out.
//
//iobt:hot
func (n *Network) scan(kept int) int {
	ix, pairs, total := &n.cells, n.pairs[:kept], kept
	for u := range n.ends {
		a := &n.ends[u]
		if !a.up || n.stable[u] || !(a.radio > 0) {
			continue
		}
		box := a.radio * (1 + rejectSlack)
		x0, x1 := ix.col(a.pos.X-box), ix.col(a.pos.X+box)
		for cy, y1 := ix.row(a.pos.Y-box), ix.row(a.pos.Y+box); cy <= y1; cy++ {
			run := ix.pts[ix.start[cy*ix.cols+x0]:ix.start[cy*ix.cols+x1+1]]
			for k := range run {
				q := &run[k]
				v := int(q.id)
				if tooFar(a.pos, q.pos, a.radio, q.radio) || v == u || (v < u && !n.stable[v]) {
					continue
				}
				rBase, d, ok := n.linkGeometry(a, &n.ends[v])
				if !ok {
					continue
				}
				if total < cap(pairs) {
					pairs = append(pairs, pair{i: int32(min(u, v)), j: int32(max(u, v)), d: d, rBase: rBase})
				}
				total++
			}
		}
	}
	n.pairs = pairs
	return total
}

// buildTable runs linkNow under cut over every pair and lays the links
// out as ascending lists. Degrees are counted first, so the table is
// sized before anything is written. The lists come out sorted without a sort:
// the links are first bucketed by one endpoint in pair order (bySrc),
// then that table is read in ascending id order and each entry written
// into the list of its other endpoint — the transpose of a symmetric
// relation is itself, now with every list in the order its sources were
// visited.
//
//iobt:hot
func (n *Network) buildTable(cut func(a, b geo.Point) bool) {
	start, ends := n.nbrStart, n.ends
	words := (len(n.pairs) + 63) / 64
	if words > cap(n.linked) {
		n.linked = growTo(n.linked[:0], words)
	}
	n.linked = n.linked[:words]
	clear(n.linked)
	clear(start)
	for k := range n.pairs {
		p := &n.pairs[k]
		if _, ok := linkNow(&ends[p.i], &ends[p.j], p.rBase, p.d, cut); ok {
			n.linked[k/64] |= 1 << (k % 64)
			start[p.i+1]++
			start[p.j+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	total := int(start[len(start)-1])
	if total > cap(n.neighbors) {
		n.neighbors = growTo(n.neighbors[:0], total)
		n.bySrc = slices.Grow(n.bySrc[:0], cap(n.neighbors))
	}
	n.neighbors, n.bySrc = n.neighbors[:total], n.bySrc[:total]

	copy(n.cursor, start)
	for w, word := range n.linked {
		for ; word != 0; word &= word - 1 {
			p := &n.pairs[w*64+bits.TrailingZeros64(word)]
			n.bySrc[n.cursor[p.i]] = NodeID(p.j)
			n.cursor[p.i]++
			n.bySrc[n.cursor[p.j]] = NodeID(p.i)
			n.cursor[p.j]++
		}
	}
	copy(n.cursor, start)
	for src := range n.cursor {
		for _, dst := range n.bySrc[start[src]:start[src+1]] {
			n.neighbors[n.cursor[dst]] = NodeID(src)
			n.cursor[dst]++
		}
	}
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
