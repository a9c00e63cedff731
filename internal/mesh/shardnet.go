package mesh

// ShardNet is the dissemination model for the sharded simulation core.
// The classic Network/Gossip stack is bound to the sequential
// sim.Engine: handlers freely read each other's state, which a parallel
// engine cannot allow. ShardNet re-expresses dissemination in the
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
	// HopLatency is the per-hop propagation delay (default 120ms; the
	// engine lookahead clamps it up if smaller).
	HopLatency time.Duration

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

// shardFanout is how many peers a node relays a fresh payload to.
const shardFanout = 3

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
	if sc.HopLatency <= 0 {
		sc.HopLatency = 120 * time.Millisecond
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
	id     NodeID
	rng    *sim.RNG
	killAt time.Duration // 0 = never fails

	publisher bool
	pubSeq    uint64

	holds map[GossipKey][]byte

	// peerBuf/candBuf back the node's own link-state queries (relay,
	// anti-entropy). They are actor-state like everything else here:
	// only this node's events touch them, so reuse is race-free. The
	// BFS flood walks *other* nodes' link state and must not borrow
	// these — it keeps its own scratch.
	peerBuf []NodeID
	candBuf []int32

	// Tick closures are built once at setup and rescheduled by value;
	// re-invoking the maker every tick allocated a fresh closure per
	// node per cadence.
	pubFn, aeFn func(*sim.ShardCtx)

	selfHeld, delivered, duplicates, relays, repairs, dropped uint64
}

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
	grid  *geo.Grid
	reach float64 // candidate radius: Radio + 2*Drift
	mid   float64 // partition midline
}

func (r *shardRun) pos(id NodeID, t time.Duration) geo.Point { return r.field.Pos(int(id), t) }

func (r *shardRun) alive(id NodeID, t time.Duration) bool {
	k := r.nodes[id].killAt
	return k == 0 || t < k
}

// linked is the pure link-state predicate: it reads only setup-time
// constants and the clock, never mutable node state.
func (r *shardRun) linked(a, b NodeID, t time.Duration) bool {
	if a == b || !r.alive(a, t) || !r.alive(b, t) {
		return false
	}
	pa, pb := r.pos(a, t), r.pos(b, t)
	if r.sc.PartitionAt > 0 && t >= r.sc.PartitionAt && t < r.sc.HealAt {
		if (pa.X < r.mid) != (pb.X < r.mid) {
			return false
		}
	}
	rng := r.sc.Radio
	if r.sc.JamIntensity > 0 && t >= r.sc.JamFrom && t < r.sc.JamTo {
		if r.sc.JamZone.Contains(pa) || r.sc.JamZone.Contains(pb) {
			rng *= 1 - r.sc.JamIntensity
		}
	}
	return pa.Dist(pb) <= rng
}

// peers returns the nodes linked to id at time t, ascending by ID. The
// candidate set comes from a static spatial hash over home positions
// with the drift-padded radius, so the scan is local, not O(N). Both
// scratch slices are reused through the returned pair — callers on the
// hot path thread the owning node's buffers, the BFS flood its own.
func (r *shardRun) peers(dst []NodeID, cand []int32, id NodeID, t time.Duration) ([]NodeID, []int32) {
	dst = dst[:0]
	cand = r.grid.Near(cand[:0], r.pos(id, t), r.reach)
	for _, c := range cand {
		nb := NodeID(c)
		if nb != id && r.linked(id, nb, t) {
			dst = append(dst, nb)
		}
	}
	sortNodeIDs(dst)
	return dst, cand
}

// RunShardScenario executes one dissemination scenario on a sharded
// engine with the given shard count. The shard count is a pure
// performance knob: for a fixed seed and scenario the returned result —
// including Digest — is identical for every shards value.
func RunShardScenario(seed int64, shards int, sc ShardScenario) (*ShardResult, error) {
	sc = sc.withDefaults()
	if sc.Nodes < 2 {
		return nil, fmt.Errorf("mesh: shard scenario needs at least 2 nodes, got %d", sc.Nodes)
	}
	if sc.Mode != ShardModeGossip && sc.Mode != ShardModeBFS {
		return nil, fmt.Errorf("mesh: unknown shard scenario mode %q", sc.Mode)
	}
	if shards < 1 {
		shards = 1
	}

	eng := sim.NewSharded(seed, sim.ShardedConfig{Shards: shards, Lookahead: 100 * time.Millisecond})
	// Field layout and fault assignment from setup streams, drawn in ID
	// order — shard-count independent by construction. The zero area and
	// drift select the field's defaults.
	field := geo.NewDriftField(eng.Stream("shardnet/field"), sc.Nodes, shards, geo.Rect{}, 0)
	run := &shardRun{
		sc:    sc,
		nodes: make([]*shardNode, sc.Nodes),
		field: field,
		grid:  geo.NewGrid(field.Area, sc.Radio+2*field.Drift),
		reach: sc.Radio + 2*field.Drift,
		mid:   field.Area.Min.X + field.Area.Width()/2,
	}
	kills := eng.Stream("shardnet/kill")
	stride := sc.Nodes / sc.Publishers
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < sc.Nodes; i++ {
		n := &shardNode{
			id:    NodeID(i),
			rng:   eng.Stream(fmt.Sprintf("shardnet/node/%d", i)),
			holds: make(map[GossipKey][]byte),
		}
		if sc.KillFrac > 0 && sc.KillAt > 0 && kills.Bool(sc.KillFrac) {
			n.killAt = sc.KillAt
		}
		n.publisher = i%stride == 0 && uint64(i/stride) < uint64(sc.Publishers)
		run.nodes[i] = n
		run.grid.Insert(int32(i), field.Home(i))
		eng.AddActor(sim.ActorID(i), field.Map.ShardOf(field.Home(i)))
	}

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
				field.MobilityTick(i, sc.MobilityEvery, sc.Horizon, n.killAt))
		}
	}

	if err := eng.Run(sc.Horizon); err != nil {
		return nil, err
	}
	return run.collect(eng, shards), nil
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
		n.holds[key] = data
		n.selfHeld++
		switch r.sc.Mode {
		case ShardModeBFS:
			//iobt:allow gocapture payload bytes are written once at publish and read-only on every hop; sharing the backing array IS the radio broadcast model
			r.flood(c, n, key, data, now)
		default:
			//iobt:allow gocapture payload bytes are written once at publish and read-only on every hop; sharing the backing array IS the radio broadcast model
			r.relay(c, n, key, data, r.sc.TTL, n.id, now)
		}
		if next := now + r.sc.PublishEvery; next <= r.sc.PublishUntil {
			c.Schedule(r.sc.PublishEvery, "publish", n.pubFn)
		}
	}
}

// relay forwards key to up to Fanout linked peers, shuffled by the
// relaying node's own stream — per-node randomness keeps the draw
// sequence a function of the node's event order alone.
//
//iobt:hot
func (r *shardRun) relay(c *sim.ShardCtx, n *shardNode, key GossipKey, data []byte, ttl int, exclude NodeID, now time.Duration) {
	if ttl <= 0 {
		return
	}
	n.peerBuf, n.candBuf = r.peers(n.peerBuf, n.candBuf, n.id, now)
	peers := n.peerBuf
	if exclude != n.id {
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
	n.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > shardFanout {
		peers = peers[:shardFanout]
	}
	from := n.id
	for _, p := range peers {
		n.relays++
		jitter := time.Duration(n.rng.Exp(float64(20 * time.Millisecond)))
		//iobt:allow gocapture payload bytes are immutable after publish; every receiver stores the same backing array it would get from a codec round-trip
		c.Send(sim.ActorID(p), r.sc.HopLatency+jitter, "gossip.data", r.receive(key, data, ttl-1, from)) //iobt:allow hotalloc the receive closure is the message frame itself: one allocation per transmitted copy, exactly what a codec would cost
	}
}

// receive handles one data frame at its destination node.
func (r *shardRun) receive(key GossipKey, data []byte, ttl int, from NodeID) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		m := r.nodes[c.Self()]
		now := c.Now()
		if !r.alive(m.id, now) {
			m.dropped++
			return
		}
		if _, ok := m.holds[key]; ok {
			m.duplicates++
			return
		}
		m.holds[key] = data
		m.delivered++
		if r.sc.OnDeliver != nil {
			r.sc.OnDeliver(m.id, key, data, now)
		}
		if r.sc.Mode == ShardModeGossip {
			//iobt:allow gocapture payload bytes are immutable after publish; the relay hands on the same read-only array it received
			r.relay(c, m, key, data, ttl, from, now)
		}
	}
}

// flood is the BFS baseline: walk the origin's connected component over
// the pure link state at publish time and schedule one delivery per
// destination at hop-count latency — the cost model of an idealized
// link-state flood, one event per (publish, destination).
func (r *shardRun) flood(c *sim.ShardCtx, n *shardNode, key GossipKey, data []byte, now time.Duration) {
	type hop struct {
		id    NodeID
		depth int
	}
	seen := map[NodeID]bool{n.id: true}
	frontier := []hop{{n.id, 0}}
	var scratch []NodeID
	var cand []int32
	for len(frontier) > 0 {
		h := frontier[0]
		frontier = frontier[1:]
		scratch, cand = r.peers(scratch, cand, h.id, now)
		for _, p := range scratch {
			if seen[p] {
				continue
			}
			seen[p] = true
			d := h.depth + 1
			n.relays++
			//iobt:allow gocapture payload bytes are immutable after publish; the analytic flood shares the same read-only array on every edge
			c.Send(sim.ActorID(p), time.Duration(d)*r.sc.HopLatency, "bfs.data", r.receive(key, data, 0, n.id))
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
		if len(n.holds) > 0 {
			var peers []NodeID
			peers, n.candBuf = r.peers(n.peerBuf, n.candBuf, n.id, now)
			n.peerBuf = peers
			if len(peers) > 0 {
				target := peers[n.rng.Pick(len(peers))]
				keys := make([]GossipKey, 0, len(n.holds))
				for key := range n.holds {
					keys = append(keys, key)
				}
				sortGossipKeys(keys)
				snap := make([]GossipPayload, len(keys))
				for i, key := range keys {
					snap[i] = GossipPayload{Key: key, Data: n.holds[key]}
				}
				//iobt:allow gocapture snap is a fresh per-send snapshot never touched again by the sender; the payload arrays inside are publish-time immutable
				c.Send(sim.ActorID(target), r.sc.HopLatency, "gossip.sync", r.repairFrom(snap))
			}
		}
		if next := now + r.sc.AntiEntropyEvery; next <= r.sc.Horizon {
			c.Schedule(r.sc.AntiEntropyEvery, "anti-entropy", n.aeFn)
		}
	}
}

func (r *shardRun) repairFrom(snap []GossipPayload) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		m := r.nodes[c.Self()]
		now := c.Now()
		if !r.alive(m.id, now) {
			m.dropped++
			return
		}
		for _, p := range snap {
			if _, ok := m.holds[p.Key]; ok {
				continue
			}
			var data []byte
			if b, ok := p.Data.([]byte); ok {
				data = b
			}
			m.holds[p.Key] = data
			m.delivered++
			m.repairs++
			if r.sc.OnDeliver != nil {
				r.sc.OnDeliver(m.id, p.Key, data, now)
			}
		}
	}
}

// collect folds per-node state into the result, checks the
// conservation laws, and computes the ID-ordered digest.
func (r *shardRun) collect(eng *sim.Sharded, shards int) *ShardResult {
	res := &ShardResult{Mode: r.sc.Mode, Shards: shards, Nodes: r.sc.Nodes, Events: eng.Processed(), ClampedSends: eng.ClampedSends()}

	pubSeq := make(map[NodeID]uint64)
	for _, n := range r.nodes {
		if n.publisher {
			pubSeq[n.id] = n.pubSeq
			res.Published += n.pubSeq
		}
	}
	aliveEnd := 0
	for _, n := range r.nodes {
		if r.alive(n.id, r.sc.Horizon) {
			aliveEnd++
		}
	}

	holders := make(map[GossipKey]uint64)
	w := r.field.Fold
	for _, n := range r.nodes {
		res.Delivered += n.delivered
		res.Duplicates += n.duplicates
		res.Relays += n.relays
		res.Repairs += n.repairs
		res.DroppedDead += n.dropped

		// Conservation law 1: held copies equal counted first-time
		// deliveries plus self-publishes — nothing held uncounted,
		// nothing counted unheld.
		if uint64(len(n.holds)) != n.delivered+n.selfHeld {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"node %d holds %d payloads but counted %d deliveries + %d publishes",
				n.id, len(n.holds), n.delivered, n.selfHeld))
		}
		keys := make([]GossipKey, 0, len(n.holds))
		for key := range n.holds {
			keys = append(keys, key)
		}
		sortGossipKeys(keys)
		w(uint64(n.id))
		w(uint64(len(keys)))
		w(n.delivered)
		w(n.duplicates)
		w(n.relays)
		w(n.repairs)
		w(n.dropped)
		for _, key := range keys {
			// Conservation law 2: every held payload traces to a publish.
			if seq, ok := pubSeq[key.Origin]; !ok || key.Seq >= seq {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"node %d holds %v never published by %d", n.id, key, key.Origin))
			}
			holders[key]++
			w(uint64(key.Origin))
			w(key.Seq)
		}
	}
	// Conservation law 3: deliveries cannot exceed publishes × nodes.
	if max := res.Published * uint64(r.sc.Nodes); res.Delivered > max {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"%d deliveries exceed %d published × %d nodes", res.Delivered, res.Published, r.sc.Nodes))
	}
	if res.Published > 0 && aliveEnd > 0 {
		var sum float64
		for _, cnt := range holders {
			sum += float64(cnt) / float64(aliveEnd)
		}
		res.DeliveryRatio = sum / float64(res.Published)
	}
	res.Digest = r.field.Digest()
	return res
}
