package mesh

// Micro-benchmarks of the three mesh hot paths.
//
// Dissemination: one op is a full epidemic spread of a single publish
// across an 8×8 member grid (rumor mongering only; anti-entropy is
// disabled so the relay/receive path dominates). allocs/op therefore
// reads as the whole-overlay allocation cost of disseminating one
// payload.
//
// Topology: one op is one Refresh of a 1000-asset mission's neighbour
// table, with a mobility step (untimed) before each.
//
// Sharded link state: one op is one "who hears me" query, the question
// every relayed frame asks, on the gossip_bare field (10^4 nodes, radio
// 200 m), walking the nodes while the clock advances.
//
// Sharded gossip: one op is one whole run, so allocs/op reads as the
// transport's allocation cost at that size.

import (
	"testing"
	"time"

	"iobt/internal/geo"
)

func BenchmarkGossipPublishSpread(b *testing.B) {
	eng, _, net := gridWorld(b, 7, 8, 8, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: -1})
	g.Start()
	// Warm the overlay so lazy setup (routing tables, member maps) is
	// outside the measured loop.
	if _, err := g.Publish(0, "cop", 64, "warm"); err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Publish(0, "cop", 64, "picture"); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkRefresh(b *testing.B) {
	pop, net := refreshWorld(b, 1, geo.NewOpenTerrain(1500, 1500), 1000)
	// Warm the neighbour lists and grid cells to their steady capacity.
	for i := 0; i < 50; i++ {
		pop.StepMobility(time.Second)
		net.Refresh()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mobility moves the world between refreshes but is not the
		// measured path: grid cells still grow now and then as nodes
		// reach new cells, and that must not read as Refresh allocating.
		b.StopTimer()
		pop.StepMobility(time.Second)
		b.StartTimer()
		net.Refresh()
	}
}

func BenchmarkShardPeers(b *testing.B) {
	const nodes = 10000
	peers, err := ShardLinks(1, ShardScenario{Nodes: nodes, Radio: 200})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peers(NodeID(i%nodes), time.Duration(i)*time.Millisecond)
	}
}

// gossipBareShape is iobtbench's gossip_bare scenario at any size: a
// connected 200 m field, 8 publishers publishing exactly publishes times
// 10 s apart, TTL 512, and 30 s after the last publish to spread.
func gossipBareShape(nodes, publishes int) ShardScenario {
	every := 10 * time.Second
	until := time.Second + time.Duration(publishes)*every - time.Millisecond
	return ShardScenario{
		Nodes:         nodes,
		Radio:         200,
		Publishers:    8,
		PublishEvery:  every,
		PublishUntil:  until,
		Horizon:       until + 30*time.Second,
		TTL:           512,
		MobilityEvery: 8 * time.Second,
	}
}

// BenchmarkShardGossip is the standing profile target of the sharded
// transport: one op is one whole gossip_bare-shaped run at 2,000 nodes on
// 2 shards — field set-up, 16 publishes and their spread.
func BenchmarkShardGossip(b *testing.B) {
	sc := gossipBareShape(2000, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunShardScenario(7, 2, sc); err != nil {
			b.Fatal(err)
		}
	}
}
