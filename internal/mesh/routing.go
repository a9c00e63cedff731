package mesh

import (
	"slices"
	"sort"
)

// Route returns the current shortest path (in hops) from src to dst,
// including both endpoints, or nil if dst is unreachable. Paths are
// cached per (src,dst) and invalidated by topology changes.
func (n *Network) Route(src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	key := [2]NodeID{src, dst}
	if e, ok := n.routes[key]; ok && e.version == n.version {
		return e.path
	}
	path := n.bfs(src, dst)
	n.routes[key] = routeEntry{path: path, version: n.version}
	return path
}

// Reachable reports whether dst is reachable from src over the current
// topology.
func (n *Network) Reachable(src, dst NodeID) bool {
	return n.Route(src, dst) != nil
}

// nextVisit starts a graph traversal: it returns a stamp no entry of
// n.mark holds yet, so "visited in this traversal" is mark[id] == stamp
// and nothing is cleared or allocated per call.
func (n *Network) nextVisit() uint32 {
	for len(n.mark) < n.pop.Len() {
		n.mark = append(n.mark, 0)
		n.prev = append(n.prev, 0)
	}
	n.visit++
	if n.visit == 0 { // wrapped: stale stamps could collide
		clear(n.mark)
		n.visit = 1
	}
	return n.visit
}

// bfs runs breadth-first search over the neighbor table. Neighbor order
// is deterministic, so returned paths are deterministic too.
func (n *Network) bfs(src, dst NodeID) []NodeID {
	if len(n.Neighbors(src)) == 0 {
		return nil
	}
	gen := n.nextVisit()
	n.mark[src], n.prev[src] = gen, src
	// queue[lo:hi] is the current frontier; the next one grows behind it.
	queue := append(n.queue[:0], src)
	lo := 0
	for depth := 0; lo < len(queue) && depth < maxHops; depth++ {
		hi := len(queue)
		for _, u := range queue[lo:hi] {
			for _, v := range n.Neighbors(u) {
				if n.mark[v] == gen {
					continue
				}
				n.mark[v], n.prev[v] = gen, u
				if v == dst {
					n.queue = queue
					return n.pathTo(src, dst)
				}
				queue = append(queue, v)
			}
		}
		lo = hi
	}
	n.queue = queue
	return nil
}

// pathTo rebuilds the src→dst path from the prev links bfs just wrote.
// The result is freshly allocated: Route caches it.
func (n *Network) pathTo(src, dst NodeID) []NodeID {
	hops := 1
	for at := dst; at != src; at = n.prev[at] {
		hops++
	}
	out := make([]NodeID, hops)
	for at, i := dst, hops-1; i >= 0; at, i = n.prev[at], i-1 {
		out[i] = at
	}
	return out
}

// flood returns every node reachable from src that the traversal
// stamped gen has not reached yet, src first, the rest in visit order.
func (n *Network) flood(src NodeID, gen uint32) []NodeID {
	n.mark[src] = gen
	out := []NodeID{src}
	for i := 0; i < len(out); i++ { // out is also the work list
		for _, v := range n.Neighbors(out[i]) {
			if n.mark[v] != gen {
				n.mark[v] = gen
				out = append(out, v)
			}
		}
	}
	return out
}

// Components returns every connected component with at least minSize
// nodes, largest first.
func (n *Network) Components(minSize int) [][]NodeID {
	var comps [][]NodeID
	gen := n.nextVisit()
	for _, id := range n.Nodes() {
		if n.mark[id] == gen {
			continue
		}
		comp := n.flood(id, gen)
		if len(comp) >= minSize {
			sortNodeIDs(comp)
			comps = append(comps, comp)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

func sortNodeIDs(s []NodeID) {
	// slices.Sort, not sort.Slice: the latter allocates a closure and a
	// reflect swapper per call, and this runs per relayed frame.
	slices.Sort(s)
}
