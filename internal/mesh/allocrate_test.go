package mesh

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"iobt/internal/sim"
)

// raceDetector is set by race_test.go: the race runtime allocates on
// its own account, so the rate pins skip under -race.
var raceDetector bool

// checkAllocRate runs run, which reports how many events it executed,
// and fails t unless the heap objects allocated per event are want: the
// exact runtime.MemStats.Mallocs delta over at least 10⁴ events, as a
// ratio, to within 1/1000 (the sim package's pins explain the choice).
func checkAllocRate(t *testing.T, what string, want float64, run func() uint64) {
	t.Helper()
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := run()
	runtime.ReadMemStats(&after)
	if events < 10_000 {
		t.Fatalf("%s: %d events measured, want at least 10⁴", what, events)
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(events); math.Abs(got-want) > 1.0/1000 {
		t.Errorf("%s: %.4f heap objects per event over %d events, want %v", what, got, events, want)
	}
}

// TestShardGossipAllocRate pins shardnet's receive and relay at 0 heap
// objects per copy, at 1 and 2 shards. Frames are built before each
// wave, as a publish would build them. Two simultaneous waves from every
// publisher warm the engine's event pools past what one wave keeps in
// flight; the single wave measured after them is copies alone. Holdings
// and peer buffers are sized up front, to the publish schedule and the
// candidate lists, so none grows.
func TestShardGossipAllocRate(t *testing.T) {
	sc, err := ShardScenario{Nodes: 2000, Radio: 200, TTL: 512, Publishers: 8, PublishEvery: time.Second,
		PublishUntil: 3 * time.Second, MobilityEvery: -1}.checked()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		eng, run := newShardEngine(3, shards, sc)
		for i, n := range run.nodes {
			n.log = make([]*frame, 0, sc.Publishers*run.slots)
			n.peerBuf = make([]NodeID, 0, run.candStart[i+1]-run.candStart[i])
		}
		wave := func(seq uint64) {
			for _, n := range run.nodes {
				if !n.publisher {
					continue
				}
				f := run.newFrame(GossipKey{Origin: n.id, Seq: seq}, nil)
				eng.ScheduleActor(sim.ActorID(n.id), time.Second, "publish", func(c *sim.ShardCtx) {
					m := run.nodes[c.Self()]
					run.hold(m, f)
					run.relay(c, m, f, len(f.recv), c.Now())
				})
			}
		}
		wave(0)
		wave(1)
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		wave(2)
		checkAllocRate(t, fmt.Sprintf("%d shards", shards), 0, func() uint64 {
			start := eng.Processed()
			if err := eng.Run(0); err != nil {
				t.Fatal(err)
			}
			return eng.Processed() - start
		})
	}
}

// TestGossipRelayAllocRate pins a classic relay decision, its copies
// delivered, at TestGossipRelayAllocsPinned's 13 heap objects, as a rate
// over 10⁵ decisions.
func TestGossipRelayAllocRate(t *testing.T) {
	eng, _, net := gridWorld(t, 3, 5, 5, 100)
	g := joinAll(net, GossipConfig{Fanout: 3, TTL: 10, AntiEntropyEvery: -1})
	p := GossipPayload{Key: GossipKey{Origin: 12}, Size: 32}
	for _, m := range g.members {
		m.have[p.Key] = p
	}
	center := g.members[12]
	relay := func() {
		g.relay(center, p, 0, center.id)
		if err := eng.Run(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // warm the engine's event pool and the network's buffers
		relay()
	}
	checkAllocRate(t, "classic relay", 1+3*4, func() uint64 {
		const decisions = 100_000
		for i := 0; i < decisions; i++ {
			relay()
		}
		return decisions
	})
}
