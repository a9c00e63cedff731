package mesh

// This file is the dissemination model of the sharded simulation core.
// The classic Network/Gossip stack is bound to the sequential
// sim.Engine: handlers freely read each other's state, which a parallel
// engine cannot allow. RunShardScenario re-expresses dissemination in the
// sharded discipline instead:
//
//   - every radio node is one sim.Sharded actor, and node state is
//     touched only by that node's events;
//   - node positions are pure functions of (node, time) — precomputed
//     bounded oscillations around a home point — so link state needs no
//     cross-actor reads and cannot depend on event interleaving;
//   - all model randomness draws from per-node streams, never shared or
//     per-shard ones.
//
// Under those rules the same seed yields a byte-identical final state
// for any shard count, which is exactly what the differential tests and
// the E18 scaling experiment verify.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// Dissemination modes for RunShardScenario.
const (
	// ShardModeGossip is fanout rumor mongering with TTL and optional
	// push anti-entropy — the sharded analogue of the Gossip overlay.
	ShardModeGossip = "gossip"
	// ShardModeBFS is the idealized link-state flooding baseline: every
	// publish reaches the origin's connected component along shortest
	// hop paths, one delivery event per destination.
	ShardModeBFS = "bfs"
)

// ShardScenario configures one sharded dissemination run. The zero
// value of most fields picks a sensible default; Nodes is required.
type ShardScenario struct {
	// Nodes is the radio population size (required, >= 2).
	Nodes int
	// Radio is the link range in meters (default 130).
	Radio float64

	// Mode selects the dissemination protocol (default ShardModeGossip).
	Mode string
	// TTL is the gossip relay hop budget (default 8).
	TTL int
	// AntiEntropyEvery is the push-repair cadence; zero disables
	// anti-entropy (pure rumor mongering).
	AntiEntropyEvery time.Duration

	// Publishers is how many nodes publish (default max(1, Nodes/64)),
	// spread by a deterministic stride over the ID space.
	Publishers int
	// PublishEvery is the per-publisher cadence (default 5s) and
	// PublishUntil the last publish time (default Horizon - 30s, or
	// Horizon/2 for horizons of 30s and under).
	PublishEvery time.Duration
	PublishUntil time.Duration
	// Horizon is the virtual run length (default 240s).
	Horizon time.Duration
	// MobilityEvery is the cadence of shard-migration ticks following
	// node drift (default 4s; negative disables them).
	MobilityEvery time.Duration

	// KillFrac of nodes fail permanently at KillAt (zero disables).
	KillAt   time.Duration
	KillFrac float64
	// JamZone attenuates links touching it by JamIntensity during
	// [JamFrom, JamTo).
	JamFrom, JamTo time.Duration
	JamZone        geo.Rect
	JamIntensity   float64
	// Links crossing the vertical midline are cut during
	// [PartitionAt, HealAt) (zero PartitionAt disables).
	PartitionAt, HealAt time.Duration

	// Payload, when set, produces the opaque application bytes carried
	// by each publish. OnDeliver observes every first-time delivery.
	// Both run on the shard that owns the node, so they must touch only
	// per-node state (e.g. node-indexed COP pictures).
	Payload   func(origin NodeID, seq uint64, at time.Duration) []byte
	OnDeliver func(node NodeID, key GossipKey, data []byte, at time.Duration)
}

const (
	// shardFanout is how many peers a node relays a fresh payload to.
	shardFanout = 3
	// shardHopLatency is the per-hop propagation delay, above the 100ms
	// engine lookahead so no send is clamped.
	shardHopLatency = 120 * time.Millisecond
)

func (sc ShardScenario) withDefaults() ShardScenario {
	if sc.Radio <= 0 {
		sc.Radio = 130
	}
	if sc.Mode == "" {
		sc.Mode = ShardModeGossip
	}
	if sc.TTL <= 0 {
		sc.TTL = 8
	}
	if sc.Horizon <= 0 {
		sc.Horizon = 240 * time.Second
	}
	if sc.Publishers <= 0 {
		sc.Publishers = sc.Nodes / 64
		if sc.Publishers < 1 {
			sc.Publishers = 1
		}
	}
	if sc.Publishers > sc.Nodes {
		sc.Publishers = sc.Nodes
	}
	if sc.PublishEvery <= 0 {
		sc.PublishEvery = 5 * time.Second
	}
	if sc.PublishUntil <= 0 {
		sc.PublishUntil = sc.Horizon - 30*time.Second
		if sc.PublishUntil <= 0 {
			sc.PublishUntil = sc.Horizon / 2
		}
	}
	if sc.MobilityEvery == 0 {
		sc.MobilityEvery = 4 * time.Second
	}
	return sc
}

// ShardResult aggregates one sharded dissemination run. Every field is
// derived from per-node state folded in ID order, so for a fixed seed
// and scenario it is identical across shard counts — Digest is the
// byte-level witness the differential tests compare.
type ShardResult struct {
	Mode   string
	Shards int
	Nodes  int

	Published   uint64
	Delivered   uint64 // first-time deliveries at non-origin nodes
	Duplicates  uint64
	Relays      uint64
	Repairs     uint64 // deliveries via anti-entropy push
	DroppedDead uint64 // frames arriving at failed nodes

	// DeliveryRatio is the mean over published payloads of the fraction
	// of end-of-run live nodes holding it.
	DeliveryRatio float64
	// Events is the total number of simulation events executed.
	Events uint64
	// ClampedSends counts Send delays the engine raised to the Lookahead
	// floor. It is shard-count invariant (clamping is a pure function of
	// the model's stated delay) and belongs in every fingerprint: a
	// drifting value means the model's latencies changed meaning.
	ClampedSends uint64
	// Violations lists conservation-law breaches (empty on a healthy
	// run; the E18 gate requires exactly zero).
	Violations []string
	// Digest folds all per-node model state in ID order.
	Digest uint64
}

// shardNode is one radio node's state, owned by its actor: only events
// executing on the node mutate it — enforced by the shardown analyzer.
//
//iobt:actor-state
type shardNode struct {
	id  NodeID
	rng *sim.RNG

	publisher bool
	pubSeq    uint64

	// held has one bit per slot of the publish schedule (shardRun.slot)
	// and answers "have I seen this"; log keeps the frames held, in
	// arrival order, for anti-entropy and the digest. offSchedule counts
	// keys no schedule slot exists for — a conservation violation.
	held        []uint64
	log         []*frame
	offSchedule uint64

	// peerBuf backs the node's own link-state queries (relay,
	// anti-entropy). It is actor-state like everything else here: only
	// this node's events touch it, so reuse is race-free. The BFS flood
	// walks *other* nodes' link state and must not borrow it — it keeps
	// its own scratch.
	peerBuf []NodeID

	// Tick closures are built once at setup and rescheduled by value;
	// re-invoking the maker every tick allocated a fresh closure per
	// node per cadence.
	pubFn, aeFn func(*sim.ShardCtx)

	selfHeld, delivered, duplicates, relays, repairs, dropped uint64
}

// frame is one publish as all its copies travel: the key, the payload
// bytes, and the callback each copy is delivered with. The publisher
// builds it; from then on it is only read, so a hop hands on the same
// frame and allocates nothing, and a node's holdings point at it.
//
//iobt:frozen
type frame struct {
	key  GossipKey
	data []byte
	// recv[t] receives a copy with t hops of budget left. A node relays a
	// key only on its first receipt, so no chain of copies is longer than
	// Nodes−1 hops and a gossip table stops at min(TTL, Nodes) entries; a
	// BFS copy carries no budget and needs recv[0] alone.
	recv []func(*sim.ShardCtx)
}

func sortHeld(log []*frame) {
	slices.SortFunc(log, func(a, b *frame) int { return compareGossipKeys(a.key, b.key) })
}

// linkEnd is the setup-time half of the link rule for one node: where
// its home is, when it fails, and the two squared distances from that
// home which settle most candidates without evaluating its position.
type linkEnd struct {
	home geo.Point
	// A point farther than reject = (Radio + stray + linkSlack)² from home
	// is out of Radio wherever the node has drifted; a point within
	// accept = (Radio − stray − linkSlack)² of it is inside Radio wherever
	// it has drifted. accept is negative (never met) when the node can
	// stray a whole Radio from home.
	reject, accept float64
	killAt         time.Duration // 0 = never fails
}

// linkSlack, in meters, keeps the two bounds conservative against
// floating-point rounding: positions and distances here carry absolute
// errors near 1e-12 m, so a pair the bounds decide sits at least a
// micron clear of the exact rule's edge and the exact rule agrees.
const linkSlack = 1e-6

// shardRun carries the immutable run context shared by all events: the
// node table, the pure link-state parameters, and the fault schedule.
// Everything here is written once at setup and only read during the
// run, so workers share it safely — the gocapture analyzer lets event
// closures capture it on the strength of this annotation.
//
//iobt:frozen
type shardRun struct {
	sc    ShardScenario
	nodes []*shardNode
	field *geo.DriftField
	mid   float64 // partition midline

	// ends is indexed by node; cand[candStart[a]:candStart[a+1]] lists,
	// ascending, every node that can ever be in range of a.
	ends      []linkEnd
	cand      []NodeID
	candStart []int

	// The publish schedule: publishers sit stride apart in the ID space
	// and each publishes at most slots times.
	stride, slots int
}

func (r *shardRun) pos(id NodeID, t time.Duration) geo.Point { return r.field.Pos(int(id), t) }

func (r *shardRun) alive(id NodeID, t time.Duration) bool {
	k := r.ends[id].killAt
	return k == 0 || t < k
}

func (r *shardRun) partitioned(t time.Duration) bool {
	return r.sc.PartitionAt > 0 && t >= r.sc.PartitionAt && t < r.sc.HealAt
}

func (r *shardRun) jammed(t time.Duration) bool {
	return r.sc.JamIntensity > 0 && t >= r.sc.JamFrom && t < r.sc.JamTo
}

// inRange is the one exact link rule: two live nodes at pa and pb hear
// each other at t when no partition separates them and they are within
// Radio, attenuated while either sits in an active jam zone. Hypot, not
// a squared comparison: a pair on the range edge must not flip.
func (r *shardRun) inRange(pa, pb geo.Point, t time.Duration) bool {
	if r.partitioned(t) && (pa.X < r.mid) != (pb.X < r.mid) {
		return false
	}
	rng := r.sc.Radio
	if r.jammed(t) && (r.sc.JamZone.Contains(pa) || r.sc.JamZone.Contains(pb)) {
		rng *= 1 - r.sc.JamIntensity
	}
	return pa.Dist(pb) <= rng
}

// linked is the pure link-state predicate and the specification peers
// is tested against: it reads only setup-time constants and the clock,
// never mutable node state.
func (r *shardRun) linked(a, b NodeID, t time.Duration) bool {
	return a != b && r.alive(a, t) && r.alive(b, t) && r.inRange(r.pos(a, t), r.pos(b, t), t)
}

// buildCandidates freezes each node's candidate list: every b whose
// home is within Radio + stray_a + stray_b of a's, since two nodes
// farther apart than that are out of range wherever both have drifted.
// The spatial hash over home points is needed only here.
func (r *shardRun) buildCandidates() {
	n := r.sc.Nodes
	stray := make([]float64, n)
	var maxStray float64
	for i := range stray {
		stray[i] = r.field.Stray(i)
		maxStray = max(maxStray, stray[i])
	}
	reachMax := r.sc.Radio + 2*maxStray
	grid := geo.NewGrid(r.field.Area, reachMax)
	for i := 0; i < n; i++ {
		e := &r.ends[i]
		e.home = r.field.Home(i)
		far := r.sc.Radio + stray[i] + linkSlack
		e.reject = far * far
		e.accept = -1
		if near := r.sc.Radio - stray[i] - linkSlack; near > 0 {
			e.accept = near * near
		}
		grid.Insert(int32(i), e.home)
	}
	r.candStart = make([]int, n+1)
	// One allocation sized from the field's density (an overestimate: few
	// nodes stray as far as the farthest) instead of append's series of
	// ever larger copies, five times the table in all.
	perNode := float64(n) / (r.field.Area.Width() * r.field.Area.Height()) * math.Pi * reachMax * reachMax
	r.cand = make([]NodeID, 0, int(float64(n)*min(perNode, float64(n-1))))
	var near []int32
	for a := 0; a < n; a++ {
		home := r.ends[a].home
		reach := r.sc.Radio + stray[a] + linkSlack
		near = grid.Near(near[:0], home, reach+maxStray+linkSlack)
		slices.Sort(near)
		for _, b := range near {
			if int(b) != a && home.Dist(r.ends[b].home) <= reach+stray[b] {
				r.cand = append(r.cand, NodeID(b))
			}
		}
		r.candStart[a+1] = len(r.cand)
	}
}

// peers returns the nodes linked to id at time t — exactly
// {b : linked(id, b, t)} — ascending by ID, which is the candidate
// table's own order. A candidate's frozen home point settles it when
// id's position is clearly outside or clearly inside its range, and
// only the rest evaluate the candidate's position and the exact rule.
// Callers on the hot path pass the owning node's buffer, the BFS flood
// its own.
//
//iobt:hot
func (r *shardRun) peers(dst []NodeID, id NodeID, t time.Duration) []NodeID {
	dst = dst[:0]
	if !r.alive(id, t) {
		return dst
	}
	pa := r.pos(id, t)
	// Inside a jam or partition window, being within Radio no longer
	// decides a link; every candidate in reach takes the exact rule.
	windowed := r.partitioned(t) || r.jammed(t)
	for _, b := range r.cand[r.candStart[id]:r.candStart[id+1]] {
		e := &r.ends[b]
		if e.killAt != 0 && t >= e.killAt {
			continue
		}
		d2 := pa.Dist2(e.home)
		if d2 > e.reject {
			continue
		}
		if (!windowed && d2 <= e.accept) || r.inRange(pa, r.pos(b, t), t) {
			dst = append(dst, b)
		}
	}
	return dst
}

// checked applies the defaults and rejects what no run can be built on.
func (sc ShardScenario) checked() (ShardScenario, error) {
	sc = sc.withDefaults()
	if sc.Nodes < 2 {
		return sc, fmt.Errorf("mesh: shard scenario needs at least 2 nodes, got %d", sc.Nodes)
	}
	if sc.Mode != ShardModeGossip && sc.Mode != ShardModeBFS {
		return sc, fmt.Errorf("mesh: unknown shard scenario mode %q", sc.Mode)
	}
	// Tick phases are drawn in whole milliseconds of the cadence.
	for _, c := range []struct {
		name  string
		every time.Duration
	}{{"PublishEvery", sc.PublishEvery}, {"AntiEntropyEvery", sc.AntiEntropyEvery}, {"MobilityEvery", sc.MobilityEvery}} {
		if c.every > 0 && c.every < time.Millisecond {
			return sc, fmt.Errorf("mesh: shard scenario %s %v is below 1ms", c.name, c.every)
		}
	}
	return sc, nil
}

// newShardRun builds everything a run only reads: the field, the fault
// assignment and the candidate table, from setup streams drawn in ID
// order — shard-count independent by construction — and the publish
// schedule. The zero area and drift select the field's defaults.
func newShardRun(stream func(string) *sim.RNG, shards int, sc ShardScenario) *shardRun {
	field := geo.NewDriftField(stream("shardnet/field"), sc.Nodes, shards)
	run := &shardRun{
		sc:     sc,
		nodes:  make([]*shardNode, sc.Nodes),
		field:  field,
		mid:    field.Area.Min.X + field.Area.Width()/2,
		ends:   make([]linkEnd, sc.Nodes),
		stride: max(1, sc.Nodes/sc.Publishers),
		// The first publish is unconditional and falls in
		// [1s, 1s+PublishEvery); the rest follow every PublishEvery
		// through PublishUntil.
		slots: max(1, 1+int((sc.PublishUntil-time.Second)/sc.PublishEvery)),
	}
	run.buildCandidates()
	if sc.KillFrac > 0 && sc.KillAt > 0 {
		kills := stream("shardnet/kill")
		for i := range run.ends {
			if kills.Bool(sc.KillFrac) {
				run.ends[i].killAt = sc.KillAt
			}
		}
	}
	return run
}

// RunShardScenario executes one dissemination scenario on a sharded
// engine with the given shard count. The shard count is a pure
// performance knob: for a fixed seed and scenario the returned result —
// including Digest — is identical for every shards value.
func RunShardScenario(seed int64, shards int, sc ShardScenario) (*ShardResult, error) {
	sc, err := sc.checked()
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	eng, run := newShardEngine(seed, shards, sc)
	field := run.field
	for i := 0; i < sc.Nodes; i++ {
		n := run.nodes[i]
		if n.publisher {
			n.pubFn = run.publishTick(n)
			first := time.Second + time.Duration(n.rng.Intn(int(sc.PublishEvery/time.Millisecond)))*time.Millisecond
			eng.ScheduleActor(sim.ActorID(i), first, "publish", n.pubFn)
		}
		if sc.AntiEntropyEvery > 0 && sc.Mode == ShardModeGossip {
			n.aeFn = run.antiEntropyTick(n)
			phase := time.Duration(n.rng.Intn(int(sc.AntiEntropyEvery/time.Millisecond))) * time.Millisecond
			eng.ScheduleActor(sim.ActorID(i), sc.AntiEntropyEvery+phase, "anti-entropy", n.aeFn)
		}
		// Mobility ticks run at EVERY shard count (a 1-shard Migrate is a
		// no-op): gating them on shards > 1 would skew both the per-node
		// stream (the phase draw below) and the processed-event count,
		// breaking shard-count invariance.
		if sc.MobilityEvery > 0 {
			phase := time.Duration(n.rng.Intn(int(sc.MobilityEvery/time.Millisecond))) * time.Millisecond
			eng.ScheduleActor(sim.ActorID(i), sc.MobilityEvery+phase, "mobility",
				field.MobilityTick(i, sc.MobilityEvery, sc.Horizon, run.ends[i].killAt))
		}
	}

	if err := eng.Run(sc.Horizon); err != nil {
		return nil, err
	}
	return run.collect(eng, shards), nil
}

// newShardEngine lays a checked scenario's nodes out on a new sharded
// engine, one actor each, with nothing scheduled yet.
func newShardEngine(seed int64, shards int, sc ShardScenario) (*sim.Sharded, *shardRun) {
	eng := sim.NewSharded(seed, sim.ShardedConfig{Shards: shards, Lookahead: 100 * time.Millisecond})
	run := newShardRun(eng.Stream, shards, sc)
	words := (sc.Publishers*run.slots + 63) / 64
	held := make([]uint64, sc.Nodes*words)
	for i := 0; i < sc.Nodes; i++ {
		run.nodes[i] = &shardNode{
			id:        NodeID(i),
			rng:       eng.Stream(fmt.Sprintf("shardnet/node/%d", i)),
			publisher: i%run.stride == 0 && i/run.stride < sc.Publishers,
			held:      held[i*words : (i+1)*words : (i+1)*words],
		}
		eng.AddActor(sim.ActorID(i), run.field.Map.ShardOf(run.field.Home(i)))
	}
	return eng, run
}

// slot maps a key to its bit in a node's held set: the publisher's
// ordinal along the stride times the per-publisher capacity, plus the
// sequence number. It is -1 for a key the publish schedule has no place
// for.
func (r *shardRun) slot(key GossipKey) int {
	ord, off := int(key.Origin)/r.stride, int(key.Origin)%r.stride
	if off != 0 || ord >= r.sc.Publishers || key.Seq >= uint64(r.slots) {
		return -1
	}
	return ord*r.slots + int(key.Seq)
}

// hold adds f to n's holdings and reports whether its key was new there.
// A key outside the publish schedule is counted and refused: there is
// no second store for it to land in.
func (r *shardRun) hold(n *shardNode, f *frame) bool {
	s := r.slot(f.key)
	if s < 0 {
		n.offSchedule++
		return false
	}
	w, bit := &n.held[s/64], uint64(1)<<(s%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	n.log = append(n.log, f)
	return true
}

// newFrame builds the frame of one publish: its receive callbacks are
// the only closures the publish and all its copies allocate.
func (r *shardRun) newFrame(key GossipKey, data []byte) *frame {
	hops := 1
	if r.sc.Mode == ShardModeGossip {
		hops = min(r.sc.TTL, r.sc.Nodes)
	}
	f := &frame{key: key, data: data, recv: make([]func(*sim.ShardCtx), hops)}
	for t := range f.recv {
		f.recv[t] = func(c *sim.ShardCtx) { r.receive(c, f, t) }
	}
	return f
}

// publishTick publishes one payload and reschedules until PublishUntil.
func (r *shardRun) publishTick(n *shardNode) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		now := c.Now()
		if !r.alive(n.id, now) {
			return
		}
		key := GossipKey{Origin: n.id, Seq: n.pubSeq}
		n.pubSeq++
		var data []byte
		if r.sc.Payload != nil {
			data = r.sc.Payload(n.id, key.Seq, now)
		}
		f := r.newFrame(key, data)
		if r.hold(n, f) {
			n.selfHeld++
		}
		switch r.sc.Mode {
		case ShardModeBFS:
			r.flood(c, n, f, now)
		default:
			r.relay(c, n, f, len(f.recv), now)
		}
		if next := now + r.sc.PublishEvery; next <= r.sc.PublishUntil {
			c.Schedule(r.sc.PublishEvery, "publish", n.pubFn)
		}
	}
}

// relay forwards f, with ttl hops of budget, to up to shardFanout linked
// peers other than the one it came from, sampled by the relaying node's
// own stream — per-node randomness keeps the draw sequence a function of
// the node's event order alone.
//
//iobt:hot
func (r *shardRun) relay(c *sim.ShardCtx, n *shardNode, f *frame, ttl int, now time.Duration) {
	if ttl <= 0 {
		return
	}
	n.peerBuf = r.peers(n.peerBuf, n.id, now)
	peers := n.peerBuf
	// A publish comes from its own node, which excludes no one.
	if exclude := NodeID(c.From()); exclude != n.id {
		trimmed := peers[:0]
		for _, p := range peers {
			if p != exclude {
				trimmed = append(trimmed, p)
			}
		}
		peers = trimmed
	}
	if len(peers) == 0 {
		return
	}
	n.rng.Sample(len(peers), shardFanout, func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > shardFanout {
		peers = peers[:shardFanout]
	}
	recv := f.recv[ttl-1]
	for _, p := range peers {
		n.relays++
		jitter := time.Duration(n.rng.Exp(float64(20 * time.Millisecond)))
		c.Send(sim.ActorID(p), shardHopLatency+jitter, "gossip.data", recv)
	}
}

// receive handles one copy of f, with ttl hops of budget left, at its
// destination node. A BFS copy has none, so only gossip relays.
//
//iobt:hot
func (r *shardRun) receive(c *sim.ShardCtx, f *frame, ttl int) {
	m := r.nodes[c.Self()]
	now := c.Now()
	if !r.alive(m.id, now) {
		m.dropped++
		return
	}
	if !r.hold(m, f) {
		m.duplicates++
		return
	}
	m.delivered++
	if r.sc.OnDeliver != nil {
		r.sc.OnDeliver(m.id, f.key, f.data, now)
	}
	r.relay(c, m, f, ttl, now)
}

// flood is the BFS baseline: walk the origin's connected component over
// the pure link state at publish time and schedule one delivery per
// destination at hop-count latency — the cost model of an idealized
// link-state flood, one event per (publish, destination).
func (r *shardRun) flood(c *sim.ShardCtx, n *shardNode, f *frame, now time.Duration) {
	type hop struct {
		id    NodeID
		depth int
	}
	seen := make([]bool, r.sc.Nodes)
	seen[n.id] = true
	frontier := []hop{{n.id, 0}}
	var scratch []NodeID
	for len(frontier) > 0 {
		h := frontier[0]
		frontier = frontier[1:]
		scratch = r.peers(scratch, h.id, now)
		for _, p := range scratch {
			if seen[p] {
				continue
			}
			seen[p] = true
			d := h.depth + 1
			n.relays++
			c.Send(sim.ActorID(p), time.Duration(d)*shardHopLatency, "bfs.data", f.recv[0])
			frontier = append(frontier, hop{p, d})
		}
	}
}

// antiEntropyTick pushes the node's held keys to one random linked
// peer; the peer adopts what it lacks. Push-only repair keeps frames
// closed over per-node state.
func (r *shardRun) antiEntropyTick(n *shardNode) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		now := c.Now()
		if !r.alive(n.id, now) {
			return
		}
		if len(n.log) > 0 {
			n.peerBuf = r.peers(n.peerBuf, n.id, now)
			if peers := n.peerBuf; len(peers) > 0 {
				target := peers[n.rng.Pick(len(peers))]
				snap := slices.Clone(n.log)
				sortHeld(snap)
				//iobt:allow gocapture snap is a fresh per-send snapshot never touched again by the sender; the frames it points at are publish-time immutable
				c.Send(sim.ActorID(target), shardHopLatency, "gossip.sync", r.repairFrom(snap))
			}
		}
		if next := now + r.sc.AntiEntropyEvery; next <= r.sc.Horizon {
			c.Schedule(r.sc.AntiEntropyEvery, "anti-entropy", n.aeFn)
		}
	}
}

func (r *shardRun) repairFrom(snap []*frame) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		m := r.nodes[c.Self()]
		now := c.Now()
		if !r.alive(m.id, now) {
			m.dropped++
			return
		}
		for _, f := range snap {
			if !r.hold(m, f) {
				continue
			}
			m.delivered++
			m.repairs++
			if r.sc.OnDeliver != nil {
				r.sc.OnDeliver(m.id, f.key, f.data, now)
			}
		}
	}
}

// collect folds per-node state into the result, checks the
// conservation laws, and computes the ID-ordered digest.
func (r *shardRun) collect(eng *sim.Sharded, shards int) *ShardResult {
	res := &ShardResult{Mode: r.sc.Mode, Shards: shards, Nodes: r.sc.Nodes, Events: eng.Processed(), ClampedSends: eng.ClampedSends()}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	var liveEnd, liveHeld uint64
	w := r.field.Fold
	for _, n := range r.nodes {
		res.Published += n.pubSeq
		res.Delivered += n.delivered
		res.Duplicates += n.duplicates
		res.Relays += n.relays
		res.Repairs += n.repairs
		res.DroppedDead += n.dropped
		if r.alive(n.id, r.sc.Horizon) {
			liveEnd++
			liveHeld += uint64(len(n.log))
		}

		// Conservation law 1: held copies equal counted first-time
		// deliveries plus self-publishes — nothing held uncounted,
		// nothing counted unheld — and the held set and its log agree.
		var set int
		for _, word := range n.held {
			set += bits.OnesCount64(word)
		}
		if uint64(len(n.log)) != n.delivered+n.selfHeld || set != len(n.log) {
			violate("node %d holds %d payloads (%d bits set) but counted %d deliveries + %d publishes",
				n.id, len(n.log), set, n.delivered, n.selfHeld)
		}
		if n.offSchedule > 0 {
			violate("node %d saw %d payloads outside the publish schedule (%d publishers × %d slots)",
				n.id, n.offSchedule, r.sc.Publishers, r.slots)
		}
		sortHeld(n.log)
		w(uint64(n.id))
		w(uint64(len(n.log)))
		w(n.delivered)
		w(n.duplicates)
		w(n.relays)
		w(n.repairs)
		w(n.dropped)
		for _, f := range n.log {
			// Conservation law 2: every held payload traces to a publish
			// (hold admits only scheduled publishers' keys).
			if f.key.Seq >= r.nodes[f.key.Origin].pubSeq {
				violate("node %d holds %v never published by %d", n.id, f.key, f.key.Origin)
			}
			w(uint64(f.key.Origin))
			w(f.key.Seq)
		}
	}
	// Conservation law 3: deliveries cannot exceed publishes × nodes.
	if max := res.Published * uint64(r.sc.Nodes); res.Delivered > max {
		violate("%d deliveries exceed %d published × %d nodes", res.Delivered, res.Published, r.sc.Nodes)
	}
	if res.Published > 0 && liveEnd > 0 {
		res.DeliveryRatio = float64(liveHeld) / float64(liveEnd*res.Published)
	}
	// Conservation law 4: the delivery ratio is a fraction.
	if !(res.DeliveryRatio >= 0 && res.DeliveryRatio <= 1) {
		violate("delivery ratio %v outside [0, 1]: %d payloads held by %d live nodes, %d published",
			res.DeliveryRatio, liveHeld, liveEnd, res.Published)
	}
	res.Digest = r.field.Digest()
	return res
}
