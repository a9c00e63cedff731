// Package shardown seeds every shape of owner-only violation the
// shardown analyzer must catch: indexing the actor table with a peer
// ID, ranging over every actor's state inside an event callback,
// passing another actor's state to a helper, and a shard-safety
// annotation anchored to the wrong declaration kind. The clean idioms
// — Self()-rooted lookups (direct, via a converted local, via a
// trusted parameter) and setup code without a ShardCtx — must stay
// silent.
package shardown

import "iobt/internal/sim"

//iobt:actor-state
type node struct {
	id    sim.ActorID
	count int
	peer  sim.ActorID
}

//iobt:frozen
type run struct {
	nodes []*node
}

// tick is the clean ownership idiom: every access is rooted at
// ShardCtx.Self(), directly or through a local that provably derives
// from it.
func (r *run) tick() func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		n := r.nodes[c.Self()]
		n.count++
		i := int(c.Self())
		m := r.nodes[i]
		m.count += int(m.peer) // reading the peer ID off own state is fine
	}
}

// pokePeer reaches through its own state into a neighbor's: the peer
// field is an actor ID like any other, and indexing the table with it
// is exactly the cross-actor access that must travel as a message.
func (r *run) pokePeer() func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		n := r.nodes[c.Self()]
		p := r.nodes[n.peer]
		p.count++ // want `actor-state node accessed through "p", which is not rooted at ShardCtx.Self\(\)`
	}
}

// census folds a global view inside an event callback — every actor's
// state read from one worker while the others may be writing theirs.
func (r *run) census() func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		total := 0
		for _, n := range r.nodes { // want `event callback iterates over every actor's node state`
			total += n.count
		}
		r.nodes[c.Self()].count = total
	}
}

// distrust is audit mutant #16's shape: a report handler running on
// one actor reads the state of the actor the report names. It races
// that actor's own events only when both fall in one window on two
// shards, which the seeds a test suite runs may never produce.
func (r *run) distrust(reporter sim.ActorID) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		if r.nodes[reporter].count > 0 { // want `actor-state node accessed through "r.nodes\[reporter\]"`
			return
		}
		r.nodes[c.Self()].count++
	}
}

// bump mutates whatever node it is handed; it has no ShardCtx, so its
// own body is exempt — the call sites carry the obligation.
func bump(n *node) { n.count++ }

// delegate launders a cross-actor access through a helper call.
func (r *run) delegate(victim sim.ActorID) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		bump(r.nodes[c.Self()])
		bump(r.nodes[victim]) // want `call passes actor-state node not rooted at ShardCtx.Self\(\)`
	}
}

// seed runs before the engine starts: no ShardCtx in the signature, so
// touching every actor is legitimate setup.
func seed(nodes []*node) {
	for i, n := range nodes {
		n.id = sim.ActorID(i)
		n.peer = sim.ActorID((i + 1) % len(nodes))
	}
}

// debugProbe documents the waiver shape: a deliberate cross-actor read
// in a diagnostics-only callback, carried with a reason.
func (r *run) debugProbe(other sim.ActorID) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		//iobt:allow shardown diagnostics-only read of a neighbor counter; the value is logged, never fed back into the model
		_ = r.nodes[other].count
	}
}

var wrongAnchor int //iobt:actor-state // want `iobt:actor-state annotation must sit on a type declaration`
