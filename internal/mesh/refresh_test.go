package mesh

// Tests for the dense topology pass: Refresh against a brute-force
// oracle, the pre-reject margin, the zero-allocation steady state, the
// Neighbors aliasing contract, and a table that is the one of its tick
// however late it is built.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// refreshWorld builds an n-asset DefaultMix (every class, mobile and
// static) on terr with one circular jammer and one partition line. On
// 1500 m open terrain with n = 1000 it is the world of
// BenchmarkNetworkRefresh, benchtab's mesh_refresh_1k row.
func refreshWorld(tb testing.TB, seed int64, terr *geo.Terrain, n int) (*asset.Population, *Network) {
	tb.Helper()
	eng := sim.NewEngine(seed)
	pop := asset.Generate(terr, asset.DefaultMix(n), eng.Stream("gen"))
	cfg := DefaultConfig()
	cfg.StepMobility = false // callers step mobility themselves
	net := New(eng, pop, terr, cfg)
	jam := geo.Circle{Center: geo.Point{X: 500, Y: 500}, Radius: 300}
	net.SetJamming(func(p geo.Point) float64 {
		if jam.Contains(p) {
			return 0.6
		}
		return 0
	})
	net.SetLinkFault(func() func(a, b geo.Point) bool { return cutAt750 })
	net.Refresh()
	return pop, net
}

// cutAt750 is refreshWorld's partition: a line at x = 750.
func cutAt750(a, b geo.Point) bool { return (a.X < 750) != (b.X < 750) }

// refLinked is the link rule written out with no early exit: the oracle
// for Network.link and its squared-distance pre-reject.
func refLinked(n *Network, a, b *asset.Asset) bool {
	if !a.Alive() || !b.Alive() || !a.Online || !b.Online {
		return false
	}
	pa, pb := a.Pos(), b.Pos()
	r := math.Min(a.Caps.RadioRange, b.Caps.RadioRange)
	r *= n.terr.RangeFactor(pa, pb)
	r *= 1 - math.Max(n.jamAt(pa), n.jamAt(pb))
	if cut := n.cutNow(); r <= 0 || (cut != nil && cut(pa, pb)) {
		return false
	}
	return pa.Dist(pb) <= r
}

// After Refresh, every node's list is exactly its brute-force link set
// in ascending id order, and the relation is symmetric, on random worlds
// with every class, mobility, jamming, a partition, deaths and offline
// nodes.
func TestRefreshMatchesBruteForce(t *testing.T) {
	terrains := []*geo.Terrain{
		geo.NewOpenTerrain(1500, 1500),
		geo.NewUrbanTerrain(1200, 1200),
		geo.NewSparseTerrain(2000, 2000),
	}
	for seed := int64(1); seed <= 6; seed++ {
		pop, net := refreshWorld(t, seed, terrains[seed%3], 300)
		rng := sim.NewRNG(seed)
		for round := 0; round < 4; round++ {
			for i := 0; i < 15; i++ { // kill wave, plus some nodes duty-cycled off
				pop.Kill(asset.ID(rng.Intn(pop.Len())))
				pop.Get(asset.ID(rng.Intn(pop.Len()))).Online = false
			}
			for tick := 0; tick < 3; tick++ {
				pop.StepMobility(time.Second)
			}
			net.Refresh()
			links := 0
			for _, a := range pop.All() {
				got := net.Neighbors(a.ID)
				var want []NodeID
				for _, id := range pop.Near(nil, a.Pos(), a.Caps.RadioRange) {
					if id != a.ID && refLinked(net, a, pop.Get(id)) {
						want = append(want, id)
					}
				}
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d round %d: Neighbors(%d) = %v, want %v", seed, round, a.ID, got, want)
				}
				for _, b := range pop.All() {
					in := slices.Contains(got, b.ID)
					if ref := a != b && refLinked(net, a, b); in != ref || in != (a != b && net.Linked(a.ID, b.ID)) {
						t.Fatalf("seed %d round %d: %d in Neighbors(%d) = %v, oracle %v, Linked %v",
							seed, round, b.ID, a.ID, in, ref, net.Linked(a.ID, b.ID))
					}
					if in && !slices.Contains(net.Neighbors(b.ID), a.ID) {
						t.Fatalf("seed %d round %d: link %d→%d has no reverse", seed, round, a.ID, b.ID)
					}
					if in && (!b.Alive() || !b.Online) {
						t.Fatalf("seed %d round %d: down node %d listed by %d", seed, round, b.ID, a.ID)
					}
				}
				links += len(got)
			}
			if links == 0 {
				t.Fatalf("seed %d round %d: no links at all, the test checks nothing", seed, round)
			}
		}
	}
}

// Neither the squared-distance pre-reject nor the cell query ever drops
// a pair the exact test accepts: for pairs a hair inside, on and outside
// the smaller radio range, Refresh (in both directions) and Linked agree
// with the oracle.
func TestLinkPreRejectIsConservative(t *testing.T) {
	rng := sim.NewRNG(3)
	offsets := []float64{-1e-9, -1e-12, -3e-16, 0, 3e-16, 1e-12, 1e-9}
	accepted := 0
	for trial := 0; trial < 300; trial++ {
		ra, rb := rng.Uniform(20, 600), rng.Uniform(20, 600)
		pa := geo.Point{X: rng.Uniform(700, 800), Y: rng.Uniform(700, 800)}
		theta := rng.Uniform(0, 2*math.Pi)
		for _, off := range offsets {
			d := math.Min(ra, rb) * (1 + off)
			pb := geo.Point{X: pa.X + d*math.Cos(theta), Y: pa.Y + d*math.Sin(theta)}
			terr := geo.NewOpenTerrain(1500, 1500)
			pop := asset.NewPopulation(terr)
			for _, spec := range []struct {
				p geo.Point
				r float64
			}{{pa, ra}, {pb, rb}} {
				caps := asset.DefaultCaps(asset.ClassSensor)
				caps.RadioRange = spec.r
				pop.Add(&asset.Asset{Caps: caps, Online: true, Energy: 1, Mobility: &geo.Static{P: spec.p}})
			}
			net := New(sim.NewEngine(1), pop, terr, DefaultConfig())
			want := refLinked(net, pop.Get(0), pop.Get(1))
			if fwd, back := slices.Contains(net.Neighbors(0), 1), slices.Contains(net.Neighbors(1), 0); fwd != want || back != want {
				t.Fatalf("radios %v/%v offset %g: Refresh linked 0→1 %v, 1→0 %v, oracle %v", ra, rb, off, fwd, back, want)
			}
			if got := net.Linked(1, 0); got != want {
				t.Fatalf("radios %v/%v offset %g: Linked = %v, oracle %v", ra, rb, off, got, want)
			}
			if want {
				accepted++
			}
		}
	}
	// Both verdicts must occur, or the boundary was never straddled.
	if total := 300 * len(offsets); accepted < total/4 || accepted > 3*total/4 {
		t.Fatalf("%d of %d boundary pairs linked: offsets do not straddle the range", accepted, total)
	}
}

// TestNeighbourTableGolden pins the table itself, absolutely: every test
// above compares Refresh with an oracle computed in the same process, so
// a change that moved both alike — the rule, the mix, the mobility model
// — would pass them all. The table is a pure function of current state
// (ascending lists), so no change to how pairs are found can move these.
// They were captured when sim.RNG's source became the in-tree SplitMix64,
// which re-drew the worlds (7180, 6847 and 7079 links); the code that
// finds pairs did not change in that commit.
func TestNeighbourTableGolden(t *testing.T) {
	for i, want := range []uint64{0xb3ba730f31a3160a, 0xb05a945d8a3f5283, 0x154788005d1d4323} {
		pop, net := refreshWorld(t, int64(i+1), geo.NewOpenTerrain(1500, 1500), 1000)
		for tick := 0; tick < 10; tick++ {
			pop.StepMobility(time.Second)
			net.Refresh()
		}
		net.Nodes()
		h := fnv.New64a()
		for _, at := range net.nbrStart {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(at)))
		}
		for _, id := range net.neighbors {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(id)))
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed %d: table hash %#016x over %d links, want %#016x", i+1, got, len(net.neighbors)/2, want)
		}
	}
}

// A steady-state Refresh and the build its first read triggers allocate
// nothing, with no fault hook, with a hook that cuts nothing, and with a
// cut in force.
func TestRefreshSteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook func() func(a, b geo.Point) bool
	}{
		{"no hook", nil},
		{"nothing cut", func() func(a, b geo.Point) bool { return nil }},
		{"cut active", func() func(a, b geo.Point) bool { return cutAt750 }},
	} {
		pop, net := refreshWorld(t, 1, geo.NewOpenTerrain(1500, 1500), 1000)
		net.SetLinkFault(tc.hook)
		refresh := func() {
			net.Refresh()
			net.Neighbors(0)
		}
		for i := 0; i < 10; i++ { // let the scratch and the table reach capacity
			pop.StepMobility(time.Second)
			refresh()
		}
		if allocs := testing.AllocsPerRun(20, refresh); allocs != 0 {
			t.Errorf("%s: steady-state Refresh and build allocated %v per call, want 0", tc.name, allocs)
		}
	}
}

// The link-fault hook is asked for the predicate in force once per
// Refresh and once per Linked call, never once per pair: over a 200-tick
// script with a cut always active, the count is exact.
func TestLinkFaultAskedOncePerRefresh(t *testing.T) {
	pop, net := refreshWorld(t, 1, geo.NewOpenTerrain(1500, 1500), 1000)
	asks, pairs := 0, 0
	net.SetLinkFault(func() func(a, b geo.Point) bool {
		asks++
		return func(a, b geo.Point) bool {
			pairs++
			return cutAt750(a, b)
		}
	})
	refreshes, linked := 0, 0
	for tick := 0; tick < 200; tick++ {
		pop.StepMobility(time.Second)
		net.Refresh()
		refreshes++
		for k := 0; k < tick%4; k++ {
			a := NodeID((tick*7 + k*131) % pop.Len())
			for _, b := range net.Neighbors(a) {
				net.Linked(a, b)
				linked++
			}
		}
	}
	if asks != refreshes+linked {
		t.Errorf("hook asked %d times over %d refreshes and %d Linked calls, want %d", asks, refreshes, linked, refreshes+linked)
	}
	if pairs < 100*asks {
		t.Errorf("the predicate judged %d pairs over %d asks: the script cut too little to tell an ask from a pair", pairs, asks)
	}
}

// Neighbors aliases the table: the slice is the network's own storage
// (so reading it is free), cannot be appended into a neighbouring list,
// and is not a snapshot — the first read after a Refresh refills the
// array under it.
func TestNeighborsAliasesUntilNextRefresh(t *testing.T) {
	_, pop, net := lineWorld(t, 5, 100)
	held := net.Neighbors(2)
	saved := slices.Clone(held)
	if !slices.Equal(saved, []NodeID{1, 3}) {
		t.Fatalf("Neighbors(2) = %v, want [1 3]", saved)
	}
	if cap(held) != len(held) {
		t.Errorf("cap %d > len %d: an append would overwrite the next node's list", cap(held), len(held))
	}
	net.Refresh() // nothing moved: same storage, same content
	if again := net.Neighbors(2); &again[0] != &held[0] || !slices.Equal(held, saved) {
		t.Errorf("an unchanged Refresh moved or changed the list: %v at %p, was %v at %p", again, &again[0], saved, &held[0])
	}
	pop.Kill(1)
	net.Refresh()
	if now := net.Neighbors(2); !slices.Equal(now, []NodeID{3}) {
		t.Errorf("Neighbors(2) after killing 1 = %v, want [3]", now)
	}
	if slices.Equal(held, saved) {
		t.Errorf("slice held across Refresh still reads %v: it aliases the table and should have been refilled", held)
	}
	if net.Neighbors(-1) != nil || net.Neighbors(99) != nil {
		t.Error("unknown ids must have no neighbours")
	}
}

// The table is the one of its tick however late it is built: a kill, an
// Online flip, a jam-field change, or a partition coming into force and
// asked for by Linked, between a Refresh and the first read, leaves the
// table equal to one built at the tick, and the next Refresh shows it.
func TestTableIsItsTicks(t *testing.T) {
	for _, late := range []struct {
		name   string
		change func(w *scriptWorld)
	}{
		{"kill", func(w *scriptWorld) {
			for id := 0; id < w.pop.Len(); id += 7 {
				w.pop.Kill(asset.ID(id))
			}
		}},
		{"offline", func(w *scriptWorld) {
			for id := 0; id < w.pop.Len(); id += 5 {
				w.pop.Get(asset.ID(id)).Online = false
			}
		}},
		{"jam", func(w *scriptWorld) { w.tick += 3 }}, // still no cut at 24
		{"partition", func(w *scriptWorld) {
			w.tick = 25 // the cut is in force from here
			if w.cut() == nil {
				t.Fatal("the script's partition is not up at tick 25")
			}
			w.net.Linked(0, 1)
		}},
	} {
		w := newScriptWorld(1, geo.NewOpenTerrain(1500, 1500), 300)
		w.tick = 17
		for i := 0; i < 3; i++ {
			w.pop.StepMobility(time.Second)
			w.refreshAndCheck(t)
		}
		w.pop.StepMobility(time.Second)
		w.tick++ // 21: no cut yet
		w.net.Refresh()
		atTick := w.rebuild()
		late.change(w)
		if w.net.Nodes(); !slices.Equal(w.net.nbrStart, atTick.nbrStart) || !slices.Equal(w.net.neighbors, atTick.neighbors) {
			t.Fatalf("%s after the Refresh: the table (%d links) differs from the one built at the tick (%d)",
				late.name, len(w.net.neighbors)/2, len(atTick.neighbors)/2)
		}
		w.net.Refresh()
		if w.net.Nodes(); slices.Equal(w.net.neighbors, atTick.neighbors) {
			t.Errorf("%s: the next Refresh left the table as it was, so the test checked nothing", late.name)
		}
		if fresh := w.rebuild(); !slices.Equal(w.net.nbrStart, fresh.nbrStart) || !slices.Equal(w.net.neighbors, fresh.neighbors) {
			t.Errorf("%s: the next Refresh's table differs from one built from nothing", late.name)
		}
	}
}
