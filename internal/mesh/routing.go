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

// bfs runs breadth-first search over the neighbor table. Neighbor order
// is deterministic, so returned paths are deterministic too.
func (n *Network) bfs(src, dst NodeID) []NodeID {
	if _, ok := n.neighbors[src]; !ok {
		return nil
	}
	prev := map[NodeID]NodeID{src: src}
	frontier := []NodeID{src}
	depth := 0
	for len(frontier) > 0 && depth < maxHops {
		var next []NodeID
		for _, u := range frontier {
			for _, v := range n.neighbors[u] {
				if _, seen := prev[v]; seen {
					continue
				}
				prev[v] = u
				if v == dst {
					return buildPath(prev, src, dst)
				}
				next = append(next, v)
			}
		}
		frontier = next
		depth++
	}
	return nil
}

func buildPath(prev map[NodeID]NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for at := dst; ; at = prev[at] {
		rev = append(rev, at)
		if at == src {
			break
		}
	}
	out := make([]NodeID, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// Component returns all nodes reachable from src (including src),
// in ascending ID order.
func (n *Network) Component(src NodeID) []NodeID {
	if _, ok := n.neighbors[src]; !ok {
		return []NodeID{src}
	}
	seen := map[NodeID]bool{src: true}
	stack := []NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range n.neighbors[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

// Components returns every connected component with at least minSize
// nodes, largest first.
func (n *Network) Components(minSize int) [][]NodeID {
	seen := make(map[NodeID]bool, len(n.neighbors))
	var comps [][]NodeID
	ids := n.Nodes()
	for _, id := range ids {
		if seen[id] {
			continue
		}
		comp := n.Component(id)
		for _, v := range comp {
			seen[v] = true
		}
		if len(comp) >= minSize {
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
