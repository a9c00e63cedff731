package mesh

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"iobt/internal/sim"
)

// Epidemic dissemination over the mesh. BFS source routing (Send) pins a
// path at send time, so one jammed region or partition silently severs
// everything behind it. Gossip instead relays each payload to a small
// seeded-random subset of neighbors (rumor mongering) and runs a periodic
// anti-entropy digest exchange, so partitioned nodes reconverge as soon
// as the topology heals. The design follows Farooq & Zhu's epidemic
// information-dissemination model for IoBT (see PAPERS.md) and SNIPPETS.md
// #3's "rapid exponential spreading".
//
// Determinism contract: relay peer selection collects the candidate
// neighbor IDs, sorts them, then applies a seeded shuffle from the
// engine-derived "gossip" stream and takes the first Fanout. Anti-entropy
// walks members in ascending ID order and picks each partner from a
// sorted candidate list with the same stream. Same seed, same byte-for-
// byte behavior — the dettaint analyzer polices this.

// Gossip frame kinds carried over SendDirect.
const (
	KindGossipData   = "gossip.data"
	KindGossipDigest = "gossip.digest"
)

// GossipKey names a published payload: the origin node plus a per-origin
// sequence number assigned by Publish.
type GossipKey struct {
	Origin NodeID
	Seq    uint64
}

// GossipPayload is one disseminated unit of application data.
type GossipPayload struct {
	Key  GossipKey
	Kind string
	Data any
	// Size is the application payload size in bytes.
	Size float64
	// Born is the virtual publish time; dissemination latency is
	// measured against it.
	Born time.Duration
}

// GossipConfig parameterizes the epidemic protocol.
type GossipConfig struct {
	// Fanout is how many neighbors each node relays a fresh payload to
	// (default 3). A Fanout at least the maximum degree degenerates to
	// flooding.
	Fanout int
	// TTL is the relay hop budget of a fresh publish (default 8).
	TTL int
	// AntiEntropyEvery is the digest-exchange cadence (default 5s).
	// Negative disables anti-entropy (pure rumor mongering).
	AntiEntropyEvery time.Duration
}

// Gossip frame sizes in bytes.
const (
	// frameOverhead is the per-frame header added on top of the payload.
	frameOverhead = 24
	// digestEntryBytes sizes one digest sequence entry.
	digestEntryBytes = 12
)

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.TTL <= 0 {
		c.TTL = 8
	}
	if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 5 * time.Second
	}
	return c
}

// gossipMember is one participating node's replica state.
type gossipMember struct {
	id  NodeID
	app Handler
	// have holds every payload this member has received, keyed by
	// (origin, seq). It only grows; anti-entropy never regresses it.
	have map[GossipKey]GossipPayload
}

// gossipDataFrame rides KindGossipData messages.
type gossipDataFrame struct {
	Payload GossipPayload
	TTL     int
}

// gossipDigestFrame rides KindGossipDigest messages: a compact statement
// of everything the sender holds, so the receiver can push back what the
// sender is missing. A reply is the receiver's own digest, sent back when
// the sender holds payloads the receiver lacks; it asks for no reply.
type gossipDigestFrame struct {
	From    NodeID
	Entries []digestEntry
	Reply   bool
}

// digestEntry lists the sequence numbers held for one origin, ascending.
type digestEntry struct {
	Origin NodeID
	Seqs   []uint64
}

// Gossip is the epidemic dissemination overlay. It is not safe for
// concurrent use; like the rest of the simulator it runs on the
// single-threaded engine loop.
type Gossip struct {
	net *Network
	eng *sim.Engine
	rng *sim.RNG
	cfg GossipConfig

	members map[NodeID]*gossipMember
	// published holds the next sequence number per origin; a key with
	// Seq >= published[Origin] cannot exist anywhere (the conservation
	// invariant checks exactly that).
	published map[NodeID]uint64

	ticker *sim.Ticker

	// peerBuf backs memberPeers: the overlay is single-threaded and no
	// caller holds the returned slice across another memberPeers call,
	// so one reused buffer serves every relay decision without a
	// per-frame allocation.
	peerBuf []NodeID

	// prevHeld remembers each member's held count at the last
	// CheckConservation call; anti-entropy must never regress it.
	prevHeld map[NodeID]int

	// Metrics.
	Published     sim.Counter // payloads published
	FramesSent    sim.Counter // data+digest frames handed to the mesh
	DeliveredNew  sim.Counter // first-time receptions (incl. origin's own copy)
	Duplicates    sim.Counter // suppressed re-receptions
	Expired       sim.Counter // receptions whose TTL forbade relaying
	Repairs       sim.Counter // payloads pushed by anti-entropy
	Rounds        sim.Counter // anti-entropy rounds run
	CorruptFrames sim.Counter // frames mangled in flight
	LatencySec    sim.Series  // publish-to-first-reception latency
}

// NewGossip builds the overlay on net. Call Join for every participating
// node, then Start to arm anti-entropy.
func NewGossip(net *Network, cfg GossipConfig) *Gossip {
	return &Gossip{
		net:       net,
		eng:       net.eng,
		rng:       net.eng.Stream("gossip"),
		cfg:       cfg.withDefaults(),
		members:   make(map[NodeID]*gossipMember),
		published: make(map[NodeID]uint64),
		prevHeld:  make(map[NodeID]int),
	}
}

// Join enrolls id in the overlay and registers its mesh handler. app, if
// non-nil, receives each first-time payload as a Message (From = origin,
// Kind/Payload/Size from the publish) plus any non-gossip traffic
// delivered to the node. A node's own publishes are stored but not
// echoed back to its app handler — the publisher already has its data.
func (g *Gossip) Join(id NodeID, app Handler) {
	if _, ok := g.members[id]; ok {
		g.members[id].app = app
		return
	}
	m := &gossipMember{id: id, app: app, have: make(map[GossipKey]GossipPayload)}
	g.members[id] = m
	g.net.RegisterHandler(id, func(msg Message) { g.handle(m, msg) })
}

// Members returns the enrolled node IDs in ascending order.
func (g *Gossip) Members() []NodeID {
	out := make([]NodeID, 0, len(g.members))
	for id := range g.members {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

// Start arms the periodic anti-entropy exchange.
func (g *Gossip) Start() {
	if g.ticker != nil || g.cfg.AntiEntropyEvery < 0 {
		return
	}
	g.ticker = g.eng.Every(g.cfg.AntiEntropyEvery, "gossip.antientropy", func() {
		g.antiEntropyRound()
	})
}

// Publish disseminates data from origin. The payload is stored at the
// origin immediately (counting as its own delivery) and relayed to a
// seeded fanout of neighbors with the full TTL budget.
func (g *Gossip) Publish(origin NodeID, kind string, size float64, data any) (GossipKey, error) {
	m, ok := g.members[origin]
	if !ok {
		return GossipKey{}, fmt.Errorf("gossip: origin %d is not a member", origin)
	}
	key := GossipKey{Origin: origin, Seq: g.published[origin]}
	g.published[origin]++
	g.Published.Inc()
	p := GossipPayload{Key: key, Kind: kind, Data: data, Size: size, Born: g.eng.Now()}
	m.have[key] = p
	g.DeliveredNew.Inc()
	g.LatencySec.Add(0)
	g.relay(m, p, g.cfg.TTL, origin)
	return key, nil
}

// DeliveryRatio is the fraction of (member, payload) pairs reached:
// total held copies over published × members. 1.0 means every member
// holds every publish; it is the experiment E17 headline metric.
func (g *Gossip) DeliveryRatio() float64 {
	denom := float64(g.Published.Value()) * float64(len(g.members))
	if denom == 0 {
		return 0
	}
	var held int
	for _, id := range g.Members() {
		held += len(g.members[id].have)
	}
	return float64(held) / denom
}

// handle dispatches one delivered mesh message for member m.
func (g *Gossip) handle(m *gossipMember, msg Message) {
	switch msg.Kind {
	case KindGossipData:
		frame, ok := msg.Payload.(*gossipDataFrame)
		if !ok {
			return
		}
		g.receive(m, frame.Payload, frame.TTL, msg.From)
	case KindGossipDigest:
		frame, ok := msg.Payload.(*gossipDigestFrame)
		if !ok {
			return
		}
		g.repair(m, frame)
	default:
		if msg.Kind == "corrupt" {
			g.CorruptFrames.Inc()
		}
		if m.app != nil {
			m.app(msg)
		}
	}
}

// receive processes a data frame at member m: duplicate suppression,
// first-time delivery to the app handler, and onward relay while the TTL
// budget lasts.
func (g *Gossip) receive(m *gossipMember, p GossipPayload, ttl int, from NodeID) {
	if _, dup := m.have[p.Key]; dup {
		g.Duplicates.Inc()
		return
	}
	m.have[p.Key] = p
	g.DeliveredNew.Inc()
	g.LatencySec.AddDuration(g.eng.Now() - p.Born)
	if m.app != nil {
		m.app(Message{
			From:    p.Key.Origin,
			To:      m.id,
			Kind:    p.Kind,
			Payload: p.Data,
			Size:    p.Size,
			Sent:    p.Born,
		})
	}
	if ttl <= 0 {
		g.Expired.Inc()
		return
	}
	g.relay(m, p, ttl-1, from)
}

// relay forwards p from member m to a seeded-random fanout of its member
// neighbors, excluding the node it arrived from. Candidates are sorted
// before the seeded sample so peer choice depends only on the seed and
// the topology, never on map iteration order.
//
//iobt:hot
func (g *Gossip) relay(m *gossipMember, p GossipPayload, ttl int, exclude NodeID) {
	peers := g.memberPeers(m.id, exclude)
	if len(peers) == 0 {
		return
	}
	k := g.cfg.Fanout
	if k > len(peers) {
		k = len(peers)
	}
	g.rng.Sample(len(peers), k, func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	// One shared frame per relay decision: Message.Payload is an
	// interface, so a pointer frame costs one allocation for the whole
	// fanout where a value frame would box once per peer.
	frame := &gossipDataFrame{Payload: p, TTL: ttl}
	for _, peer := range peers[:k] {
		g.FramesSent.Inc()
		// Gossip is fire-and-forget by design: a refused or lost frame is
		// repaired by the next anti-entropy round. The Engine-based mesh
		// pays a path slice and a hop closure per transmitted frame; the
		// sharded overlay is the zero-allocation path.
		g.net.SendDirect(Message{
			From:    m.id,
			To:      peer,
			Size:    p.Size + frameOverhead,
			Kind:    KindGossipData,
			Payload: frame,
		})
	}
}

// memberPeers returns m's current neighbors that are also overlay
// members, ascending, excluding exclude. The returned slice aliases
// g.peerBuf and is only valid until the next call.
//
//iobt:hot
func (g *Gossip) memberPeers(id, exclude NodeID) []NodeID {
	peers := g.peerBuf[:0]
	for _, nb := range g.net.Neighbors(id) {
		if nb == exclude {
			continue
		}
		if _, ok := g.members[nb]; ok {
			peers = append(peers, nb)
		}
	}
	sortNodeIDs(peers)
	g.peerBuf = peers
	return peers
}

// antiEntropyRound has every member send a digest of its holdings to one
// seeded-random member neighbor. The exchange is push-pull: the receiver
// pushes back every payload the digest lacks as a fresh full-TTL data
// frame, and if the digest lists payloads the receiver lacks, it replies
// with its own digest so the sender pushes those. Repairs spread
// epidemically too — that is what re-converges partitions after heal —
// and a leaf whose only neighbor never picks it still gets its backlog
// out through its own digests.
func (g *Gossip) antiEntropyRound() {
	g.Rounds.Inc()
	for _, id := range g.Members() {
		peers := g.memberPeers(id, id)
		if len(peers) == 0 {
			continue
		}
		g.sendDigest(g.members[id], peers[g.rng.Pick(len(peers))], false)
	}
}

// sendDigest sends m's digest to member to.
func (g *Gossip) sendDigest(m *gossipMember, to NodeID, reply bool) {
	frame := g.digest(m)
	frame.Reply = reply
	g.FramesSent.Inc()
	// A lost digest only delays convergence: the next round retries with a fresh partner
	g.net.SendDirect(Message{
		From:    m.id,
		To:      to,
		Size:    frameOverhead + digestEntryBytes*float64(len(m.have)),
		Kind:    KindGossipDigest,
		Payload: frame,
	})
}

// digest summarizes m's holdings with deterministic ordering: origins
// ascending, sequence numbers ascending within each origin.
func (g *Gossip) digest(m *gossipMember) *gossipDigestFrame {
	keys := make([]GossipKey, 0, len(m.have))
	for key := range m.have {
		keys = append(keys, key)
	}
	sortGossipKeys(keys)
	var entries []digestEntry
	for _, key := range keys {
		if n := len(entries); n > 0 && entries[n-1].Origin == key.Origin {
			entries[n-1].Seqs = append(entries[n-1].Seqs, key.Seq)
			continue
		}
		entries = append(entries, digestEntry{Origin: key.Origin, Seqs: []uint64{key.Seq}})
	}
	return &gossipDigestFrame{From: m.id, Entries: entries}
}

// repair pushes every payload m holds that the digest sender lacks back
// to the sender, with the full TTL budget so the repair floods onward,
// then answers a digest that is not itself a reply with m's own digest if
// the sender holds a payload m lacks.
func (g *Gossip) repair(m *gossipMember, frame *gossipDigestFrame) {
	if _, ok := g.members[frame.From]; !ok {
		return
	}
	theirs := make(map[GossipKey]bool)
	lacking := false
	for _, e := range frame.Entries {
		for _, seq := range e.Seqs {
			key := GossipKey{Origin: e.Origin, Seq: seq}
			theirs[key] = true
			if _, ok := m.have[key]; !ok {
				lacking = true
			}
		}
	}
	missing := make([]GossipKey, 0)
	for key := range m.have {
		if !theirs[key] {
			missing = append(missing, key)
		}
	}
	sortGossipKeys(missing)
	for _, key := range missing {
		p := m.have[key]
		g.Repairs.Inc()
		g.FramesSent.Inc()
		// A failed repair push is retried by construction: the partner's holdings are re-compared every anti-entropy round
		g.net.SendDirect(Message{
			From:    m.id,
			To:      frame.From,
			Size:    p.Size + frameOverhead,
			Kind:    KindGossipData,
			Payload: &gossipDataFrame{Payload: p, TTL: g.cfg.TTL},
		})
	}
	if lacking && !frame.Reply {
		g.sendDigest(m, frame.From, true)
	}
}

// compareGossipKeys orders keys by (origin, seq) ascending.
func compareGossipKeys(a, b GossipKey) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// sortGossipKeys sorts in place, without sort.Slice's reflection
// swapper; keys in one slice are distinct, so stability is moot.
func sortGossipKeys(keys []GossipKey) { slices.SortFunc(keys, compareGossipKeys) }

// CheckConservation verifies the gossip conservation law:
//
//  1. every held payload traces to an origin publish (its sequence
//     number is below the origin's publish counter);
//  2. first-time deliveries equal total held copies (nothing is held
//     that was never counted delivered, and vice versa);
//  3. no member's holdings ever shrink — anti-entropy never regresses
//     replica state;
//  4. deliveries never exceed publishes × members.
//
// The verify registry arms this as the mesh-overlay invariant.
func (g *Gossip) CheckConservation() error {
	var held int
	for _, id := range g.Members() {
		m := g.members[id]
		held += len(m.have)
		keys := make([]GossipKey, 0, len(m.have))
		for key := range m.have {
			keys = append(keys, key)
		}
		sortGossipKeys(keys)
		for _, key := range keys {
			if key.Seq >= g.published[key.Origin] {
				return fmt.Errorf("gossip: member %d holds %v but origin %d only published %d payloads",
					id, key, key.Origin, g.published[key.Origin])
			}
		}
		if prev := g.prevHeld[id]; len(m.have) < prev {
			return fmt.Errorf("gossip: member %d regressed from %d to %d held payloads", id, prev, len(m.have))
		}
		g.prevHeld[id] = len(m.have)
	}
	if uint64(held) != g.DeliveredNew.Value() {
		return fmt.Errorf("gossip: %d payloads held but %d first-time deliveries counted",
			held, g.DeliveredNew.Value())
	}
	var total uint64
	for origin := range g.published {
		total += g.published[origin]
	}
	pop := uint64(len(g.members))
	if max := total * pop; g.DeliveredNew.Value() > max {
		return fmt.Errorf("gossip: %d deliveries exceed %d published × %d members", g.DeliveredNew.Value(), total, pop)
	}
	return nil
}
