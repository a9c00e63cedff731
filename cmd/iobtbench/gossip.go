package main

// gossip_bare and gossip_cop: mesh.RunShardScenario at 2 shards. The
// bare form is E18's 10^4-node gossip scenario with no payload, so the
// transport (peer selection, link predicate, relay) dominates; the cop
// form is the `iobtsim -shards` shape, where every publish encodes a
// cop.Picture and every first-time delivery merges one, so the CRDT
// codec dominates. One is the other's control: a cop optimisation
// predicts "no change" on bare, a relay optimisation must not cost the
// payload-carrying run.

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"iobt/internal/cop"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

const gossipShards = 2

// gossipRadio is the link range of both gossip workloads. The 130 m
// default leaves the random field just above its percolation threshold,
// where the share of nodes a publish reaches (0.59 to 0.92 over six
// seeds) and with it the work swings with the seed's luck; at 200 m the
// field is connected and every seed does the same work.
const gossipRadio = 200

// publishUntil returns the PublishUntil at which every publisher
// publishes exactly n times whatever phase its stream drew: the first
// publish falls in [1s, 1s+every).
func publishUntil(every time.Duration, n int) time.Duration {
	return time.Second + time.Duration(n)*every - time.Millisecond
}

// bareScenario is e18Scenario(nodes, mode) from
// internal/experiments/e18.go with the connected field above and a
// fixed publish count, cut to publishes rounds per publisher.
func bareScenario(nodes int, mode string, publishes int) mesh.ShardScenario {
	every := 10 * time.Second
	until := publishUntil(every, publishes)
	return mesh.ShardScenario{
		Nodes:         nodes,
		Radio:         gossipRadio,
		Mode:          mode,
		Publishers:    8,
		PublishEvery:  every,
		PublishUntil:  until,
		Horizon:       until + 30*time.Second, // as E18: the last publish gets 30s to spread
		TTL:           512,
		MobilityEvery: 8 * time.Second,
	}
}

// copScenario is shardedScenario from cmd/iobtsim/sharded.go with the
// same two changes.
func copScenario(nodes int, publishes int) mesh.ShardScenario {
	every := 5 * time.Second
	until := publishUntil(every, publishes)
	return mesh.ShardScenario{
		Nodes:            nodes,
		Radio:            gossipRadio,
		PublishEvery:     every,
		PublishUntil:     until,
		Horizon:          until + 30*time.Second,
		AntiEntropyEvery: 15 * time.Second,
		TTL:              64,
	}
}

type gossipInst struct {
	seed    int64
	sc      mesh.ShardScenario
	withCOP bool

	// The 1-shard reference run verify made: its wall time, and its
	// recorder unit when it was traced.
	refWall float64
	refUnit int
}

func setupGossipBare(e env) (instance, error) {
	nodes := 10000
	if e.quick {
		nodes = 1000
	}
	return newGossip(e, bareScenario(nodes, mesh.ShardModeGossip, 2), false)
}

func setupGossipCOP(e env) (instance, error) {
	nodes, publishes := 600, 6
	if e.quick {
		nodes, publishes = 300, 2
	}
	return newGossip(e, copScenario(nodes, publishes), true)
}

func newGossip(e env, sc mesh.ShardScenario, withCOP bool) (instance, error) {
	g := &gossipInst{seed: e.seed, sc: sc, withCOP: withCOP}
	// Warm-up: the whole field is built, then run for one publish round —
	// a fixed count, as in the units, so every seed's set-up does the same
	// work.
	warm := sc
	warm.PublishUntil = publishUntil(sc.PublishEvery, 1)
	warm.Horizon = warm.PublishUntil + sc.Horizon/4
	if _, _, err := g.run(nil, gossipShards, warm); err != nil {
		return nil, err
	}
	return g, nil
}

// copTally is what the cop callbacks of one run added up. Per node, as
// the callbacks run on the shard that owns the node; summed afterwards.
type copTally struct {
	encodes, merges         uint64
	encodeBytes, mergeBytes uint64
}

// run executes sc once. With withCOP the publishers encode their
// picture and receivers merge it, and the returned fingerprint covers
// every node's merged picture as cmd/iobtsim's does. With a recorder
// each callback is a span, recorded on its node's own lane.
func (g *gossipInst) run(rec *recorder, shards int, sc mesh.ShardScenario) (*mesh.ShardResult, copTally, error) {
	var pics []*cop.Picture
	var tally []copTally
	var lanes []*lane
	if g.withCOP {
		pics = make([]*cop.Picture, sc.Nodes)
		tally = make([]copTally, sc.Nodes)
		for i := range pics {
			pics[i] = cop.NewPicture(mesh.NodeID(i))
		}
		encode := func(origin mesh.NodeID, seq uint64, at time.Duration) []byte {
			p := pics[origin]
			p.Cover(cop.Cell{X: int32(seq), Y: int32(origin)})
			p.ObserveTrack(int(seq), cop.TrackFix{Pos: geo.Point{X: float64(origin), Y: float64(seq)}}, at)
			data := p.Encode()
			tally[origin].encodes++
			tally[origin].encodeBytes += uint64(len(data))
			return data
		}
		merge := func(node mesh.NodeID, _ mesh.GossipKey, data []byte, _ time.Duration) {
			// A frame that fails to decode cannot regress the replica; the
			// fingerprint below would show the loss.
			if err := pics[node].MergeEncoded(data); err == nil {
				tally[node].merges++
				tally[node].mergeBytes += uint64(len(data))
			}
		}
		sc.Payload, sc.OnDeliver = encode, merge
		if rec != nil {
			lanes = make([]*lane, sc.Nodes)
			for i := range lanes {
				lanes[i] = rec.lane()
			}
			sc.Payload = func(origin mesh.NodeID, seq uint64, at time.Duration) []byte {
				t0 := time.Now()
				data := encode(origin, seq, at)
				lanes[origin].add("cop.encode", t0, time.Now())
				return data
			}
			sc.OnDeliver = func(node mesh.NodeID, key mesh.GossipKey, data []byte, at time.Duration) {
				t0 := time.Now()
				merge(node, key, data, at)
				lanes[node].add("cop.merge", t0, time.Now())
			}
		}
	}

	var id int
	if rec != nil {
		id = rec.begin("mesh.shardnet.run", -1)
	}
	res, err := mesh.RunShardScenario(g.seed, shards, sc)
	if rec != nil {
		rec.end(id)
		rec.adopt(id, lanes...)
	}
	if err != nil {
		return nil, copTally{}, err
	}

	var sum copTally
	if g.withCOP {
		h := fnv.New64a()
		fmt.Fprintf(h, "%016x", res.Digest)
		for i, p := range pics {
			fmt.Fprintf(h, "|%d:%x", i, p.Digest())
			sum.encodes += tally[i].encodes
			sum.merges += tally[i].merges
			sum.encodeBytes += tally[i].encodeBytes
			sum.mergeBytes += tally[i].mergeBytes
		}
		res.Digest = h.Sum64()
	}
	return res, sum, nil
}

func (g *gossipInst) unit(rec *recorder) outcome {
	out := outcome{ops: 1, counts: map[string]float64{}}
	res, tally, err := g.run(rec, gossipShards, g.sc)
	if err != nil {
		return out.fail("%v", err)
	}
	out.digest = res.Digest
	for _, v := range res.Violations {
		out.fail("conservation: %s", v)
	}
	c := out.counts
	c["sim.events"] = float64(res.Events)
	c["sim.clamped_sends"] = float64(res.ClampedSends)
	c["mesh.shardnet.published"] = float64(res.Published)
	c["mesh.shardnet.delivered"] = float64(res.Delivered)
	c["mesh.shardnet.duplicates"] = float64(res.Duplicates)
	c["mesh.shardnet.relays"] = float64(res.Relays)
	c["mesh.shardnet.repairs"] = float64(res.Repairs)
	c["mesh.shardnet.dropped_dead"] = float64(res.DroppedDead)
	c["mesh.shardnet.useful_ratio"] = ratio(float64(res.Delivered), float64(res.Delivered+res.Duplicates))
	c["mesh.shardnet.delivery_ratio"] = res.DeliveryRatio
	c["cop.encode_calls"] = float64(tally.encodes)
	c["cop.encode_bytes"] = float64(tally.encodeBytes)
	c["cop.merge_calls"] = float64(tally.merges)
	c["cop.merge_bytes_in"] = float64(tally.mergeBytes)
	out.notes = append(out.notes, fmt.Sprintf("digest=%016x delivery_ratio=%.6f published=%d delivered=%d events=%d",
		res.Digest, res.DeliveryRatio, res.Published, res.Delivered, res.Events))
	return out
}

// verify runs the same scenario once at 1 shard: the reference every
// 2-shard unit must reproduce byte for byte.
func (g *gossipInst) verify(rec *recorder, units []outcome) []string {
	problems := sameDigest(units)
	if rec != nil {
		rec.unit++
		g.refUnit = rec.unit
	}
	t0 := time.Now()
	ref, _, err := g.run(rec, 1, g.sc)
	g.refWall = time.Since(t0).Seconds()
	if err != nil {
		return append(problems, fmt.Sprintf("1-shard reference: %v", err))
	}
	for i, u := range units {
		if u.digest != ref.Digest {
			problems = append(problems, fmt.Sprintf("unit %d: %d-shard digest %016x != 1-shard reference %016x",
				i, gossipShards, u.digest, ref.Digest))
		}
	}
	return problems
}

func (g *gossipInst) layers(t traceInfo) map[string]float64 {
	m := t.out.counts
	rec := t.rec

	// The traced unit's callback spans.
	encodeSec := rec.busySeconds(t.unit, "cop.encode")
	mergeSec := rec.busySeconds(t.unit, "cop.merge")
	m["cop.encode_s"] = encodeSec
	m["cop.merge_s"] = mergeSec
	m["cop.encode_ns_per_call"] = ratio(encodeSec*1e9, m["cop.encode_calls"])
	m["cop.merge_ns_per_call"] = ratio(mergeSec*1e9, m["cop.merge_calls"])
	m["mesh.shardnet.run_s"] = t.wall

	// The traced 1-shard reference: with no second worker, callback busy
	// time over wall time is the callbacks' true share.
	busy1 := rec.busySeconds(g.refUnit, "cop.encode") + rec.busySeconds(g.refUnit, "cop.merge")
	m["cop.share_1shard"] = ratio(busy1, g.refWall)
	m["mesh.shardnet.speedup_2v1"] = ratio(g.refWall, t.wall)

	// A zero-length horizon prices field construction alone.
	zero := g.sc
	zero.Horizon = time.Nanosecond
	t0 := time.Now()
	if _, _, err := g.run(nil, gossipShards, zero); err == nil {
		m["mesh.shardnet.setup_s"] = time.Since(t0).Seconds()
	}

	// The engine's part, priced from outside: exact event count × the
	// per-event cost of the bare engine at the same shard count.
	nsPerEvent := probeShardedTick(gossipShards)
	m["sim.sharded2.ns_per_event"] = nsPerEvent
	m["sim.events_per_s"] = ratio(m["sim.events"], t.wall)
	m["sim.est_busy_s"] = m["sim.events"] * nsPerEvent / 1e9
	m["sim.est_share"] = ratio(m["sim.est_busy_s"], t.wall)

	if !g.withCOP {
		m["geo.grid.near_ns"] = probeGridNear(g.seed, g.sc.Nodes, g.sc.Radio)
		bfs := bareScenario(g.sc.Nodes/5, mesh.ShardModeBFS, 2)
		t0 = time.Now()
		if _, err := mesh.RunShardScenario(g.seed, gossipShards, bfs); err == nil {
			m["mesh.shardnet.bfs_wall_s"] = time.Since(t0).Seconds()
		}
	}
	return m
}

func (g *gossipInst) close() {}

// probeShardedTick prices one event of the bare sharded engine: the
// storm model at a size that runs in a fraction of a second.
func probeShardedTick(shards int) float64 {
	p, err := runStorm(1, shards, 1000, 30*time.Second)
	if err != nil {
		return 0
	}
	return ratio(p.runSec*1e9, float64(p.events))
}

// probeGridNear prices geo.Grid.Near at the bare scenario's density and
// candidate radius (Radio + 2×Drift over the default field).
func probeGridNear(seed int64, nodes int, radio float64) float64 {
	// The defaults RunShardScenario applies: see ShardScenario.withDefaults.
	const drift = 25.0
	side := 400 * math.Sqrt(float64(nodes)/25)
	area := geo.NewRect(geo.Point{}, geo.Point{X: 1.5 * side, Y: side})
	reach := radio + 2*drift
	grid := geo.NewGrid(area, reach)
	pts := make([]geo.Point, nodes)
	rng := sim.NewRNG(seed).Derive("probe.grid")
	for i := range pts {
		pts[i] = geo.Point{X: rng.Uniform(0, area.Max.X), Y: rng.Uniform(0, area.Max.Y)}
		grid.Insert(int32(i), pts[i])
	}
	var buf []int32
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range pts {
			buf = grid.Near(buf[:0], p, reach)
		}
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(rounds*nodes))
}
