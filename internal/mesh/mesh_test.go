package mesh

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// lineWorld builds n static sensor nodes in a row, spaced apart, each
// within radio range of only its immediate neighbors.
func lineWorld(t *testing.T, n int, spacing float64) (*sim.Engine, *asset.Population, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(float64(n+1)*spacing, 1000)
	pop := asset.NewPopulation(terr)
	for i := 0; i < n; i++ {
		caps := asset.DefaultCaps(asset.ClassSensor)
		caps.RadioRange = spacing * 1.5 // reach neighbor, not neighbor's neighbor
		a := &asset.Asset{
			Affiliation: asset.Blue,
			Class:       asset.ClassSensor,
			Caps:        caps,
			Online:      true,
			Mobility:    &geo.Static{P: geo.Point{X: float64(i+1) * spacing, Y: 500}},
		}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0 // deterministic delivery for protocol tests
	net := New(eng, pop, terr, cfg)
	return eng, pop, net
}

// mustSend fails the test if the network refuses the message outright
// (dead source, no route). Per-hop loss is still possible afterwards —
// tests that exercise loss assert on delivery counts, not on Send.
func mustSend(t *testing.T, net *Network, msg Message) {
	t.Helper()
	if err := net.Send(msg); err != nil {
		t.Fatalf("send %d->%d: %v", msg.From, msg.To, err)
	}
}

func TestLineTopology(t *testing.T) {
	_, _, net := lineWorld(t, 5, 100)
	if got := len(net.Neighbors(0)); got != 1 {
		t.Errorf("end node neighbors = %d, want 1", got)
	}
	if got := len(net.Neighbors(2)); got != 2 {
		t.Errorf("middle node neighbors = %d, want 2", got)
	}
	if !net.Linked(0, 1) || net.Linked(0, 2) {
		t.Error("link predicate wrong")
	}
}

func TestRouteShortestPath(t *testing.T) {
	_, _, net := lineWorld(t, 5, 100)
	path := net.Route(0, 4)
	if len(path) != 5 {
		t.Fatalf("path = %v, want 5 nodes", path)
	}
	for i, id := range path {
		if id != asset.ID(i) {
			t.Fatalf("path = %v, want 0..4 in order", path)
		}
	}
	if p := net.Route(2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("self route = %v", p)
	}
}

func TestRouteCacheInvalidation(t *testing.T) {
	_, pop, net := lineWorld(t, 5, 100)
	if net.Route(0, 4) == nil {
		t.Fatal("expected route")
	}
	pop.Kill(2)
	net.Refresh()
	if net.Route(0, 4) != nil {
		t.Error("route survived cut vertex removal")
	}
	if net.Reachable(0, 1) != true {
		t.Error("adjacent nodes should remain reachable")
	}
}

func TestComponents(t *testing.T) {
	_, pop, net := lineWorld(t, 6, 100)
	pop.Kill(3)
	net.Refresh()
	comps := net.Components(1)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("component sizes = %d,%d", len(comps[0]), len(comps[1]))
	}
}

// Route and Components share one stamped visited
// table. Interleaving them, and wrapping the stamp, must not leak one
// traversal's marks into the next.
func TestTraversalsShareScratchSafely(t *testing.T) {
	_, pop, net := lineWorld(t, 6, 100)
	pop.Kill(3)
	net.Refresh()
	net.visit = math.MaxUint32 - 2 // the calls below cross the wrap
	for i := 0; i < 4; i++ {
		if p := net.bfs(0, 2); !slices.Equal(p, []NodeID{0, 1, 2}) {
			t.Fatalf("pass %d: bfs(0,2) = %v", i, p)
		}
		if p := net.bfs(0, 5); p != nil {
			t.Fatalf("pass %d: bfs across the cut = %v", i, p)
		}
		comps := net.Components(1)
		if len(comps) != 2 || !slices.Equal(comps[0], []NodeID{0, 1, 2}) || !slices.Equal(comps[1], []NodeID{4, 5}) {
			t.Fatalf("pass %d: Components = %v", i, comps)
		}
	}
}

func TestSendDelivers(t *testing.T) {
	eng, _, net := lineWorld(t, 5, 100)
	var got []Message
	net.RegisterHandler(4, func(m Message) { got = append(got, m) })
	err := net.Send(Message{From: 0, To: 4, Size: 100, Kind: "report"})
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].Hops != 4 {
		t.Errorf("hops = %d, want 4", got[0].Hops)
	}
	if net.Delivered.Value() != 1 {
		t.Error("Delivered counter wrong")
	}
	if net.LatencySec.N() != 1 || net.LatencySec.Mean() <= 0 {
		t.Error("latency not recorded")
	}
}

func TestSendNoRoute(t *testing.T) {
	_, pop, net := lineWorld(t, 5, 100)
	pop.Kill(2)
	net.Refresh()
	err := net.Send(Message{From: 0, To: 4, Size: 10})
	if err != ErrNoRoute {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
	if net.NoRoute.Value() != 1 {
		t.Error("NoRoute counter wrong")
	}
}

func TestSendDeadSource(t *testing.T) {
	_, pop, net := lineWorld(t, 3, 100)
	pop.Kill(0)
	net.Refresh()
	if err := net.Send(Message{From: 0, To: 2, Size: 10}); err != ErrDeadNode {
		t.Errorf("err = %v, want ErrDeadNode", err)
	}
}

func TestMidFlightNodeLossDrops(t *testing.T) {
	eng, pop, net := lineWorld(t, 5, 100)
	delivered := false
	net.RegisterHandler(4, func(Message) { delivered = true })
	if err := net.Send(Message{From: 0, To: 4, Size: 100}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Kill a mid-path node before the message reaches it.
	pop.Kill(2)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered {
		t.Error("message delivered across a dead relay")
	}
	if net.Dropped.Value() == 0 {
		t.Error("drop not counted")
	}
}

func TestLossyLinkDropsSometimes(t *testing.T) {
	eng := sim.NewEngine(2)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 100
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: float64(i) * 99, Y: 500}}} // near range edge
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0.5
	net := New(eng, pop, terr, cfg)
	delivered := 0
	net.RegisterHandler(1, func(Message) { delivered++ })
	const total = 200
	for i := 0; i < total; i++ {
		mustSend(t, net, Message{From: 0, To: 1, Size: 10})
	}
	_ = eng.Run(time.Hour)
	if delivered == 0 || delivered == total {
		t.Errorf("delivered = %d of %d; want lossy but nonzero", delivered, total)
	}
}

func TestSendDirectRequiresLink(t *testing.T) {
	eng, _, net := lineWorld(t, 5, 100)
	if err := net.SendDirect(Message{From: 0, To: 4, Size: 10}); err != ErrNoRoute {
		t.Errorf("SendDirect to non-neighbor: err = %v", err)
	}
	ok := false
	net.RegisterHandler(1, func(Message) { ok = true })
	if err := net.SendDirect(Message{From: 0, To: 1, Size: 10}); err != nil {
		t.Fatalf("SendDirect: %v", err)
	}
	_ = eng.Run(time.Minute)
	if !ok {
		t.Error("direct message not delivered")
	}
}

func TestTransmitEnergyDrain(t *testing.T) {
	eng, pop, net := lineWorld(t, 2, 100)
	before := pop.Get(0).Energy
	mustSend(t, net, Message{From: 0, To: 1, Size: 1e6})
	_ = eng.Run(time.Minute)
	if pop.Get(0).Energy >= before {
		t.Error("transmission did not drain energy")
	}
}

func TestQueueingDelaysLargeTransfers(t *testing.T) {
	eng, _, net := lineWorld(t, 2, 100)
	var first, second time.Duration
	count := 0
	net.RegisterHandler(1, func(Message) {
		count++
		if count == 1 {
			first = eng.Now()
		} else {
			second = eng.Now()
		}
	})
	// Two back-to-back large messages: the second must queue behind the
	// first at the sender.
	mustSend(t, net, Message{From: 0, To: 1, Size: 50000})
	mustSend(t, net, Message{From: 0, To: 1, Size: 50000})
	_ = eng.Run(time.Hour)
	if count != 2 {
		t.Fatalf("delivered %d, want 2", count)
	}
	if second <= first {
		t.Errorf("no queueing: first=%v second=%v", first, second)
	}
}

func TestJammingSeversLinks(t *testing.T) {
	_, _, net := lineWorld(t, 5, 100)
	if !net.Reachable(0, 4) {
		t.Fatal("precondition: reachable")
	}
	// Jam the middle of the line completely.
	net.SetJamming(func(p geo.Point) float64 {
		if p.Dist(geo.Point{X: 300, Y: 500}) < 120 {
			return 1
		}
		return 0
	})
	net.Refresh()
	if net.Reachable(0, 4) {
		t.Error("route survived total jamming of the middle")
	}
	net.SetJamming(nil)
	net.Refresh()
	if !net.Reachable(0, 4) {
		t.Error("route did not recover after jamming cleared")
	}
}

func TestMobilityChangesTopology(t *testing.T) {
	eng := sim.NewEngine(3)
	terr := geo.NewOpenTerrain(2000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassUAV)
	caps.RadioRange = 150
	// A static node and a patroller that moves in and out of range.
	a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
		Mobility: &geo.Static{P: geo.Point{X: 100, Y: 500}}}
	a.Energy = caps.EnergyCap
	pop.Add(a)
	b := &asset.Asset{Class: asset.ClassUAV, Caps: caps, Online: true,
		Mobility: geo.NewPatrol([]geo.Point{{X: 200, Y: 500}, {X: 1800, Y: 500}}, 50)}
	b.Energy = caps.EnergyCap
	pop.Add(b)
	cfg := DefaultConfig()
	cfg.StepMobility = true
	net := New(eng, pop, terr, cfg)
	net.Start()
	if !net.Linked(0, 1) {
		t.Fatal("precondition: linked at start")
	}
	_ = eng.Run(10 * time.Second) // UAV moves 500m away
	if net.Linked(0, 1) {
		t.Error("link survived departure")
	}
	net.Stop()
	verAtStop := net.version
	_ = eng.Run(10 * time.Second)
	if net.version != verAtStop {
		t.Error("refresh continued after Stop")
	}
}

func TestVersionAdvancesOnRefresh(t *testing.T) {
	_, _, net := lineWorld(t, 3, 100)
	v := net.version
	net.Refresh()
	if net.version <= v {
		t.Error("version did not advance")
	}
}

func TestNodesSorted(t *testing.T) {
	_, _, net := lineWorld(t, 5, 100)
	ids := net.Nodes()
	if len(ids) != 5 {
		t.Fatalf("Nodes = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("Nodes not sorted: %v", ids)
		}
	}
}

// Property: every route returned is a valid chain of currently linked
// nodes, starts at src, and ends at dst.
func TestRouteValidityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		eng := sim.NewEngine(seed)
		terr := geo.NewOpenTerrain(1500, 1500)
		pop := asset.Generate(terr, asset.DefaultMix(150), eng.Stream("gen"))
		cfg := DefaultConfig()
		cfg.StepMobility = false
		net := New(eng, pop, terr, cfg)
		ids := net.Nodes()
		if len(ids) < 2 {
			return true
		}
		rng := sim.NewRNG(seed)
		for trial := 0; trial < 20; trial++ {
			src := ids[rng.Intn(len(ids))]
			dst := ids[rng.Intn(len(ids))]
			path := net.Route(src, dst)
			if path == nil {
				continue
			}
			if path[0] != src || path[len(path)-1] != dst {
				return false
			}
			for i := 0; i+1 < len(path); i++ {
				if !net.Linked(path[i], path[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
