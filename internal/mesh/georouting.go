package mesh

// RouteGeo computes a route by greedy geographic forwarding: each hop
// relays to the neighbor strictly closest to the destination's physical
// position. It needs no global topology knowledge — per-hop cost is
// O(degree) instead of BFS's O(V+E) — which is why position-based
// routing is the classic choice for infrastructure-less battlefield
// meshes. The trade-off is completeness: greedy forwarding strands at a
// local minimum ("void") where no neighbor improves on the current
// node; RouteGeo then returns nil and callers fall back to Route.
//
// The returned path includes both endpoints.
func (n *Network) RouteGeo(src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	target := n.pop.Get(dst)
	if target == nil || !target.Alive() {
		return nil
	}
	goal := target.Pos()

	cur := src
	curAsset := n.pop.Get(cur)
	if curAsset == nil || !curAsset.Alive() {
		return nil
	}
	curDist := curAsset.Pos().Dist(goal)
	path := []NodeID{src}
	gen := n.nextVisit()
	n.mark[src] = gen

	for hops := 0; hops < maxHops; hops++ {
		best := NodeID(-1)
		bestDist := curDist
		for _, nb := range n.Neighbors(cur) {
			if n.mark[nb] == gen {
				continue
			}
			a := n.pop.Get(nb)
			if a == nil || !a.Alive() {
				continue
			}
			if d := a.Pos().Dist(goal); d < bestDist {
				best, bestDist = nb, d
			}
		}
		if best < 0 {
			return nil // void: no strictly closer neighbor
		}
		path = append(path, best)
		n.mark[best] = gen
		if best == dst {
			return path
		}
		cur, curDist = best, bestDist
	}
	return nil
}

// SendGeo routes msg with greedy geographic forwarding, falling back to
// shortest-path routing when greedy strands. It returns ErrNoRoute when
// both fail.
func (n *Network) SendGeo(msg Message) error {
	n.Sent.Inc()
	src := n.pop.Get(msg.From)
	if src == nil || !src.Alive() || !src.Online {
		n.Dropped.Inc()
		return ErrDeadNode
	}
	path := n.RouteGeo(msg.From, msg.To)
	if path == nil {
		path = n.Route(msg.From, msg.To)
	}
	if path == nil {
		n.NoRoute.Inc()
		return ErrNoRoute
	}
	msg.Sent = n.eng.Now()
	n.inFlight++
	n.forward(msg, path, 0)
	return nil
}
