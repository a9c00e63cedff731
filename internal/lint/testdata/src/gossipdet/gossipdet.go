// Package gossipdet pins the gossip dissemination determinism
// contract: relay fanout must shuffle a *sorted* candidate list with a
// seeded stream (mesh.Gossip.relay sorts in memberPeers before the
// shuffle). Collecting peers from a map and shuffling unsorted makes
// peer choice depend on map iteration order — same seed, different
// bytes — and each shape of that mistake must be a finding: the
// escaping unsorted collect, the order-dependent draw count, and the
// flow laundered through a call boundary.
package gossipdet

import (
	"sort"

	"iobt/internal/sim"
)

// overlay is a miniature gossip membership: node ID → neighbor IDs.
type overlay struct {
	members map[int64][]int64
	rng     *sim.RNG
}

// badFanout collects relay candidates straight off the membership map
// and shuffles: the shuffle is seeded, but its input order is the
// map's, so the chosen fanout differs run to run on the same seed.
func (o *overlay) badFanout(exclude int64) []int64 {
	var peers []int64
	for id := range o.members {
		if id != exclude {
			peers = append(peers, id)
		}
	}
	o.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	return peers // want `badFanout returns a slice ordered by map-iteration order`
}

// badJitter draws per-member jitter while ranging the map: the draw
// count follows iteration order, so every later consumer of the same
// stream shifts with it.
func (o *overlay) badJitter() int {
	total := 0
	for range o.members {
		total += o.rng.Intn(8) // want `the seeded RNG \(RNG\.Intn\) runs once per map entry`
	}
	return total
}

// firstMember returns whichever member the map yields first — a
// scalar, so no slice escapes and no sink runs inside the range.
func firstMember(members map[int64][]int64) int64 {
	for id := range members {
		return id
	}
	return -1
}

// badSeedPick launders the arbitrary member through a call boundary
// before it reaches the seeded stream: caught by the taint analyzer.
func badSeedPick(members map[int64][]int64, rng *sim.RNG) int {
	return rng.Intn(int(firstMember(members)) + 1) // want `map-iteration order .* via firstMember flows into the seeded RNG`
}

// goodFanout is the contract itself: collect, sort, then seeded
// shuffle. Peer choice now depends only on the seed and the topology,
// which is what makes same-seed gossip runs byte-identical.
func (o *overlay) goodFanout(exclude int64) []int64 {
	var peers []int64
	for id := range o.members {
		if id != exclude {
			peers = append(peers, id)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	o.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	return peers
}

// memberCount is a commutative reduction over the map: clean input to
// the stream even though it came from a range.
func memberCount(members map[int64][]int64) int {
	n := 0
	for range members {
		n++
	}
	return n
}

func cleanDraw(members map[int64][]int64, rng *sim.RNG) int {
	return rng.Intn(memberCount(members) + 1)
}

// debugCensus demonstrates the reasoned-waiver escape hatch.
func (o *overlay) debugCensus() int {
	n := 0
	for range o.members {
		//iobt:allow dettaint debug-only census: the draws feed a one-shot stderr line and never reach a trace, frame, or checkpoint
		n += o.rng.Intn(2)
	}
	return n
}
