package mesh

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// gridWorld builds cols×rows static sensors spaced apart so each links
// to its orthogonal and diagonal neighbors only. Loss is disabled so
// protocol behavior is exact.
func gridWorld(t testing.TB, seed int64, cols, rows int, spacing float64) (*sim.Engine, *asset.Population, *Network) {
	t.Helper()
	eng := sim.NewEngine(seed)
	side := float64(cols+rows) * spacing
	terr := geo.NewOpenTerrain(side, 1000)
	pop := asset.NewPopulation(terr)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			caps := asset.DefaultCaps(asset.ClassSensor)
			caps.RadioRange = spacing * 1.5
			a := &asset.Asset{
				Affiliation: asset.Blue,
				Class:       asset.ClassSensor,
				Caps:        caps,
				Online:      true,
				Mobility:    &geo.Static{P: geo.Point{X: float64(c+1) * spacing, Y: float64(r+1) * spacing}},
			}
			a.Energy = caps.EnergyCap
			pop.Add(a)
		}
	}
	cfg := DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0
	net := New(eng, pop, terr, cfg)
	return eng, pop, net
}

// joinAll enrolls every linked node and returns the gossip overlay.
func joinAll(net *Network, cfg GossipConfig) *Gossip {
	g := NewGossip(net, cfg)
	for _, id := range net.Nodes() {
		g.Join(id, nil)
	}
	return g
}

// holds reports whether member id has received key.
func holds(g *Gossip, id NodeID, key GossipKey) bool {
	_, ok := g.members[id].have[key]
	return ok
}

func TestGossipDisseminatesToAllMembers(t *testing.T) {
	eng, _, net := gridWorld(t, 7, 5, 4, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: 2 * time.Second})
	g.Start()
	key, err := g.Publish(0, 64, "picture-v1")
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, id := range g.Members() {
		if !holds(g, id, key) {
			t.Errorf("member %d never received %v", id, key)
		}
	}
	if ratio := g.DeliveryRatio(); ratio != 1 {
		t.Errorf("delivery ratio = %v, want 1", ratio)
	}
	if err := g.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestGossipDuplicateSuppression(t *testing.T) {
	eng, _, net := gridWorld(t, 3, 3, 3, 100)
	// Huge fanout degenerates to flooding: every reception relays to all
	// neighbors, so duplicates are guaranteed in a 3×3 grid.
	g := joinAll(net, GossipConfig{Fanout: 1 << 20, TTL: 10, AntiEntropyEvery: -1})
	if _, err := g.Publish(4, 32, nil); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := g.DeliveredNew.Value(); got != 9 {
		t.Errorf("first-time deliveries = %d, want 9 (one per member)", got)
	}
	if g.Duplicates.Value() == 0 {
		t.Error("flood fanout over a 3×3 grid must produce duplicate receptions")
	}
	if err := g.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestGossipTTLBoundsSpread(t *testing.T) {
	eng, _, net := lineWorld(t, 10, 100)
	// TTL 2 without anti-entropy: origin relays with budget 2, so the
	// payload reaches at most 3 hops down the line.
	g := joinAll(net, GossipConfig{Fanout: 2, TTL: 2, AntiEntropyEvery: -1})
	key, err := g.Publish(0, 32, nil)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !holds(g, 1, key) {
		t.Error("direct neighbor should receive the payload")
	}
	for id := NodeID(4); id < 10; id++ {
		if holds(g, id, key) {
			t.Errorf("member %d beyond the TTL budget received the payload", id)
		}
	}
	if g.Expired.Value() == 0 {
		t.Error("the TTL budget must expire somewhere on a 10-node line")
	}
	if err := g.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

// TestGossipDeterminism pins the fanout determinism contract: identical
// seeds produce byte-identical dissemination (same frames, same
// receptions, same latency sum), and a different seed is allowed to —
// and on this topology does — make different relay choices.
func TestGossipDeterminism(t *testing.T) {
	run := func(seed int64) (frames, delivered, dups uint64, latency float64) {
		eng, _, net := gridWorld(t, seed, 5, 5, 100)
		g := joinAll(net, GossipConfig{Fanout: 2, TTL: 12, AntiEntropyEvery: time.Second})
		g.Start()
		for i := 0; i < 4; i++ {
			if _, err := g.Publish(NodeID(i*6), 48, i); err != nil {
				t.Fatalf("publish: %v", err)
			}
		}
		if err := eng.Run(20 * time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		return g.FramesSent.Value(), g.DeliveredNew.Value(), g.Duplicates.Value(), g.LatencySec.Sum()
	}
	f1, d1, u1, l1 := run(42)
	f2, d2, u2, l2 := run(42)
	if f1 != f2 || d1 != d2 || u1 != u2 || l1 != l2 {
		t.Errorf("same seed diverged: frames %d/%d delivered %d/%d dups %d/%d latency %v/%v",
			f1, f2, d1, d2, u1, u2, l1, l2)
	}
	f3, _, u3, l3 := run(43)
	if f1 == f3 && u1 == u3 && l1 == l3 {
		t.Log("seed 43 happened to match seed 42 exactly; suspicious but not fatal")
	}
}

func TestGossipPartitionHealReconverges(t *testing.T) {
	eng, _, net := gridWorld(t, 11, 6, 4, 100)
	// Sever every link crossing x=350: two 3×4 islands.
	cut := func(a, b geo.Point) bool { return (a.X < 350) != (b.X < 350) }
	net.SetLinkFault(func() func(a, b geo.Point) bool { return cut })
	net.Refresh()
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: 2 * time.Second})
	g.Start()
	// One publish per side: neither can cross the cut.
	kLeft, err := g.Publish(0, 64, "left")
	if err != nil {
		t.Fatalf("publish left: %v", err)
	}
	kRight, err := g.Publish(5, 64, "right")
	if err != nil {
		t.Fatalf("publish right: %v", err)
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if holds(g, 5, kLeft) || holds(g, 0, kRight) {
		t.Fatal("payload crossed an active partition")
	}
	if ratio := g.DeliveryRatio(); ratio >= 1 {
		t.Fatalf("delivery ratio %v during partition, want < 1", ratio)
	}
	if err := g.CheckConservation(); err != nil {
		t.Errorf("conservation during partition: %v", err)
	}

	// Heal: anti-entropy digests now cross the seam and repair both sides.
	net.SetLinkFault(nil)
	net.Refresh()
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatalf("run after heal: %v", err)
	}
	if ratio := g.DeliveryRatio(); ratio != 1 {
		t.Errorf("delivery ratio after heal = %v, want 1", ratio)
	}
	if g.Repairs.Value() == 0 {
		t.Error("reconvergence must be driven by anti-entropy repairs")
	}
	if err := g.CheckConservation(); err != nil {
		t.Errorf("conservation after heal: %v", err)
	}
}

// TestGossipDigestPullsFromItsSender: a digest that lists a payload its
// receiver lacks is answered with the receiver's own digest, so the
// sender pushes the payload. A leaf whose one neighbor never picks it for
// anti-entropy gets its stranded publishes out this way. The reply asks
// for nothing back: one digest, one reply, one push.
func TestGossipDigestPullsFromItsSender(t *testing.T) {
	eng, _, net := gridWorld(t, 5, 2, 1, 100)
	g := joinAll(net, GossipConfig{})
	net.SetLinkFault(func() func(a, b geo.Point) bool { return func(a, b geo.Point) bool { return true } })
	net.Refresh()
	key, err := g.Publish(0, 64, "stranded")
	if err != nil {
		t.Fatal(err)
	}
	net.SetLinkFault(nil)
	net.Refresh()
	frames := g.FramesSent.Value()
	g.sendDigest(g.members[0], 1, false)
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !holds(g, 1, key) {
		t.Error("the digest's receiver never pulled the payload it lacked")
	}
	if got := g.FramesSent.Value() - frames; got != 3 {
		t.Errorf("%v frames for one digest exchange, want 3 (digest, reply, push)", got)
	}
	frames = g.FramesSent.Value()
	g.repair(g.members[1], &gossipDigestFrame{From: 0, Entries: []digestEntry{{Origin: 0, Seqs: []uint64{key.Seq, key.Seq + 1}}}, Reply: true})
	if got := g.FramesSent.Value() - frames; got != 0 {
		t.Errorf("a reply listing a payload its receiver lacks was answered with %v frames, want 0", got)
	}
}

func TestGossipConservationDetectsRegression(t *testing.T) {
	eng, _, net := gridWorld(t, 13, 3, 3, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 8, AntiEntropyEvery: -1})
	key, err := g.Publish(0, 32, nil)
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := g.CheckConservation(); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	// A replica silently losing state is exactly what the invariant
	// exists to catch.
	delete(g.members[4].have, key)
	if err := g.CheckConservation(); err == nil {
		t.Error("regressed replica state not detected")
	}
}

func TestGossipConservationDetectsPhantomPayload(t *testing.T) {
	_, _, net := gridWorld(t, 17, 2, 2, 100)
	g := joinAll(net, GossipConfig{})
	// A payload that traces to no publish must be flagged.
	g.members[1].have[GossipKey{Origin: 3, Seq: 9}] = GossipPayload{Key: GossipKey{Origin: 3, Seq: 9}}
	if err := g.CheckConservation(); err == nil {
		t.Error("phantom payload (no origin publish) not detected")
	}
}

func TestGossipNonMemberPublishFails(t *testing.T) {
	_, _, net := gridWorld(t, 19, 2, 2, 100)
	g := NewGossip(net, GossipConfig{})
	if _, err := g.Publish(0, 32, nil); err == nil {
		t.Error("publish from non-member should fail")
	}
}

func TestGossipAppHandlerChaining(t *testing.T) {
	eng, _, net := gridWorld(t, 23, 2, 2, 100)
	g := NewGossip(net, GossipConfig{Fanout: 3, TTL: 8, AntiEntropyEvery: -1})
	var gossiped, direct []Message
	for _, id := range net.Nodes() {
		id := id
		g.Join(id, func(m Message) {
			if m.Kind == "cop" {
				gossiped = append(gossiped, m)
			} else {
				direct = append(direct, m)
			}
		})
	}
	if _, err := g.Publish(0, 64, "payload"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	// Non-gossip traffic must still reach the chained app handler.
	mustSend(t, net, Message{From: 0, To: 3, Size: 16, Kind: "order"})
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(gossiped) != 3 {
		t.Errorf("app saw %d gossip deliveries, want 3 (origin's own copy is not echoed back)", len(gossiped))
	}
	for _, m := range gossiped {
		if m.From != 0 || m.Payload != "payload" {
			t.Errorf("gossip delivery carries wrong origin/payload: %+v", m)
		}
	}
	if len(direct) != 1 || direct[0].Kind != "order" {
		t.Errorf("direct traffic lost in handler chaining: %+v", direct)
	}
}

func TestGossipOriginLatencyZero(t *testing.T) {
	_, _, net := gridWorld(t, 31, 2, 2, 100)
	g := joinAll(net, GossipConfig{AntiEntropyEvery: -1})
	if _, err := g.Publish(0, 32, nil); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if g.LatencySec.N() != 1 || g.LatencySec.Sum() != 0 {
		t.Errorf("origin's own copy should record zero latency, got n=%d sum=%v",
			g.LatencySec.N(), g.LatencySec.Sum())
	}
}

// TestGossipRelayAllocsPinned pins one classic relay decision, its
// copies delivered, at its exact allocation count. A fanout of 3 costs
// the shared frame plus four objects a copy: SendDirect's two-node path,
// the message moved to the heap at the send hop and again at the
// delivery hop, and the hop closure. Every receiver already holds the
// payload, so delivery ends in duplicate suppression, and draining the
// engine keeps its event pool warm. The peer list is g.peerBuf: a fresh
// slice per decision would add its growth to the count.
func TestGossipRelayAllocsPinned(t *testing.T) {
	eng, _, net := gridWorld(t, 3, 5, 5, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: -1})
	p := GossipPayload{Key: GossipKey{Origin: 12}, Size: 32}
	for _, m := range g.members {
		m.have[p.Key] = p
	}
	center := g.members[12] // eight neighbours, all members
	allocs := testing.AllocsPerRun(100, func() {
		g.relay(center, p, 0, center.id)
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1+3*4 {
		t.Errorf("one relay decision allocates %v objects, want %d", allocs, 1+3*4)
	}
	if dup := g.Duplicates.Value(); dup != 3*101 {
		t.Errorf("%d duplicate receptions, want %d: not every copy was delivered", dup, 3*101)
	}
}
