package adapt

import (
	"iobt/internal/asset"
	"iobt/internal/mesh"
)

// SpanningTree is a self-stabilizing BFS spanning tree over the mesh,
// in the shared-state model of Dolev/Dijkstra-style self-stabilization:
// each node repeatedly applies a local rule using only its neighbors'
// state, and from any (even corrupted) configuration the tree converges
// to a legal BFS tree rooted at the smallest reachable node ID.
//
// The tree is the substrate for in-network aggregation and command
// dissemination; its convergence time after disruption is one of the
// reflex metrics of experiment E4.
type SpanningTree struct {
	net *mesh.Network

	// state per node.
	root   map[asset.ID]asset.ID
	dist   map[asset.ID]int
	parent map[asset.ID]asset.ID
}

// NewSpanningTree returns a tree protocol bound to net with arbitrary
// (self-referential) initial state.
func NewSpanningTree(net *mesh.Network) *SpanningTree {
	t := &SpanningTree{
		net:    net,
		root:   make(map[asset.ID]asset.ID),
		dist:   make(map[asset.ID]int),
		parent: make(map[asset.ID]asset.ID),
	}
	return t
}

// Corrupt injects adversarial state into a node (testing and the E4
// fault-injection path): id claims the phantom root -1, smaller than
// every real ID, at distance 0.
func (t *SpanningTree) Corrupt(id asset.ID) {
	t.root[id] = -1
	t.dist[id] = 0
	t.parent[id] = id
}

// Step applies the local stabilization rule once at every node (one
// synchronous round) and returns the number of nodes that changed state.
func (t *SpanningTree) Step() int {
	ids := t.net.Nodes()
	changed := 0
	// maxDepth bounds legal distances: claims deeper than the node count
	// are impossible and are discarded. This is the standard defense
	// against count-to-infinity on phantom roots (a corrupted node
	// advertising a root ID that does not exist) and on dead roots.
	maxDepth := len(ids)
	// Compute next states from current states (synchronous model).
	type st struct {
		root   asset.ID
		dist   int
		parent asset.ID
	}
	next := make(map[asset.ID]st, len(ids))
	for _, id := range ids {
		// Default: claim self as root.
		best := st{root: id, dist: 0, parent: id}
		for _, nb := range t.net.Neighbors(id) {
			nbRoot, ok := t.root[nb]
			if !ok {
				nbRoot = nb
			}
			nbDist := t.dist[nb]
			if nbDist+1 > maxDepth {
				continue // impossible claim: ignore
			}
			cand := st{root: nbRoot, dist: nbDist + 1, parent: nb}
			if cand.root < best.root || (cand.root == best.root && cand.dist < best.dist) {
				best = cand
			}
		}
		next[id] = best
	}
	for _, id := range ids {
		n := next[id]
		if t.root[id] != n.root || t.dist[id] != n.dist || t.parent[id] != n.parent {
			changed++
		}
		t.root[id] = n.root
		t.dist[id] = n.dist
		t.parent[id] = n.parent
	}
	return changed
}

// maxRounds bounds Stabilize.
const maxRounds = 1000

// Stabilize runs Step until quiescent or maxRounds, returning the number
// of rounds used and whether it quiesced.
func (t *SpanningTree) Stabilize() (int, bool) {
	for r := 1; r <= maxRounds; r++ {
		if t.Step() == 0 {
			return r, true
		}
	}
	return maxRounds, false
}

// Parent returns id's current parent (itself for roots).
func (t *SpanningTree) Parent(id asset.ID) asset.ID {
	p, ok := t.parent[id]
	if !ok {
		return id
	}
	return p
}

// Root returns id's current believed root.
func (t *SpanningTree) Root(id asset.ID) asset.ID {
	r, ok := t.root[id]
	if !ok {
		return id
	}
	return r
}

// Legal verifies the global invariant: within every connected component
// all nodes agree on the minimum-ID root, distances are consistent BFS
// distances, and parent pointers decrease distance.
func (t *SpanningTree) Legal() bool {
	comps := t.net.Components(1)
	for _, comp := range comps {
		if len(comp) == 0 {
			continue
		}
		minID := comp[0] // Components returns sorted IDs
		// BFS ground-truth distances from minID.
		want := map[asset.ID]int{minID: 0}
		frontier := []asset.ID{minID}
		for len(frontier) > 0 {
			var next []asset.ID
			for _, u := range frontier {
				for _, v := range t.net.Neighbors(u) {
					if _, ok := want[v]; !ok {
						want[v] = want[u] + 1
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		for _, id := range comp {
			if t.Root(id) != minID {
				return false
			}
			if t.dist[id] != want[id] {
				return false
			}
			if id != minID {
				p := t.Parent(id)
				if t.dist[p] != t.dist[id]-1 {
					return false
				}
			}
		}
	}
	return true
}
