package mesh

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/cop"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// shardScenarios are the representative dissemination workloads the
// differential suite replays at every shard count: an E17-style gossip
// run through partition, jamming, and heal; an E14-style permanent
// fault sweep; the BFS flooding baseline; a dense field jammed and
// killed under anti-entropy; and BFS through a kill wave.
func shardScenarios() map[string]ShardScenario {
	return map[string]ShardScenario{
		"gossip-partition-jam-heal": {
			Nodes:            150,
			Horizon:          120 * time.Second,
			PublishUntil:     90 * time.Second,
			Publishers:       3,
			AntiEntropyEvery: 10 * time.Second,
			PartitionAt:      30 * time.Second,
			HealAt:           85 * time.Second,
			JamFrom:          40 * time.Second,
			JamTo:            70 * time.Second,
			JamZone:          geo.NewRect(geo.Point{X: 500, Y: 100}, geo.Point{X: 900, Y: 700}),
			JamIntensity:     0.7,
		},
		"gossip-kill-sweep": {
			Nodes:        120,
			Horizon:      100 * time.Second,
			PublishUntil: 80 * time.Second,
			Publishers:   4,
			KillAt:       40 * time.Second,
			KillFrac:     0.3,
		},
		"bfs-baseline": {
			Nodes:        120,
			Mode:         ShardModeBFS,
			Horizon:      100 * time.Second,
			PublishUntil: 80 * time.Second,
			Publishers:   3,
		},
		"dense-jam-kill": {
			Nodes:            300,
			Radio:            200,
			Horizon:          90 * time.Second,
			PublishUntil:     70 * time.Second,
			Publishers:       5,
			AntiEntropyEvery: 7 * time.Second,
			KillAt:           35 * time.Second,
			KillFrac:         0.25,
			JamFrom:          20 * time.Second,
			JamTo:            60 * time.Second,
			JamZone:          geo.NewRect(geo.Point{X: 300, Y: 200}, geo.Point{X: 1200, Y: 900}),
			JamIntensity:     0.5,
		},
		"bfs-kill": {
			Nodes:        200,
			Mode:         ShardModeBFS,
			Horizon:      80 * time.Second,
			PublishUntil: 60 * time.Second,
			Publishers:   4,
			KillAt:       30 * time.Second,
			KillFrac:     0.4,
		},
	}
}

func scenarioNames() []string {
	return []string{"gossip-partition-jam-heal", "gossip-kill-sweep", "bfs-baseline", "dense-jam-kill", "bfs-kill"}
}

// journalResult logs every shard-count-invariant result field, so a
// journal diff catches any divergence between runs.
func journalResult(j *checkpoint.Journal, res *ShardResult) {
	j.Logf(0, "mode=%s nodes=%d published=%d delivered=%d dup=%d relays=%d repairs=%d dropped=%d ratio=%.6f events=%d clamped=%d violations=%d digest=%016x",
		res.Mode, res.Nodes, res.Published, res.Delivered, res.Duplicates, res.Relays,
		res.Repairs, res.DroppedDead, res.DeliveryRatio, res.Events, res.ClampedSends, len(res.Violations), res.Digest)
}

// TestShardScenarioDeterminismAcrossShardCounts is the PR's headline
// differential: each representative scenario, same seed, at 1, 2, 4,
// and 8 shards, must produce byte-identical journals (checked by
// checkpoint.VerifyEquivalence), zero conservation violations, and zero
// clamped sends — no stock hop latency may fall below the lookahead.
func TestShardScenarioDeterminismAcrossShardCounts(t *testing.T) {
	for _, name := range scenarioNames() {
		sc := shardScenarios()[name]
		t.Run(name, func(t *testing.T) {
			const seed = 77
			runAt := func(shards int) func(*checkpoint.Journal) {
				return func(j *checkpoint.Journal) {
					res, err := RunShardScenario(seed, shards, sc)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					for _, v := range res.Violations {
						t.Errorf("shards=%d conservation violation: %s", shards, v)
					}
					if res.ClampedSends != 0 {
						t.Errorf("shards=%d: %d clamped sends; a stock hop latency fell below the lookahead floor", shards, res.ClampedSends)
					}
					if res.Published == 0 || res.Delivered == 0 {
						t.Fatalf("shards=%d degenerate run: published=%d delivered=%d", shards, res.Published, res.Delivered)
					}
					journalResult(j, res)
				}
			}
			if d := checkpoint.VerifyEquivalence(seed, name,
				runAt(1), runAt(2), runAt(4), runAt(8)); d != nil {
				t.Errorf("shard counts diverged: %v", d)
			}
		})
	}
}

// TestShardScenarioReplay asserts plain same-configuration determinism
// through the standard replay verifier.
func TestShardScenarioReplay(t *testing.T) {
	sc := shardScenarios()["gossip-partition-jam-heal"]
	run := func(j *checkpoint.Journal) {
		res, err := RunShardScenario(13, 4, sc)
		if err != nil {
			t.Fatal(err)
		}
		journalResult(j, res)
	}
	if d := checkpoint.VerifyEquivalence(13, "shardnet-replay", run, run); d != nil {
		t.Errorf("replay diverged: %v", d)
	}
}

// TestShardScenarioCOPPayload wires the COP CRDT through the opaque
// payload hooks: publishers ship encoded pictures, receivers merge them
// with MergeEncoded into per-node replicas (owned state only), and the
// merged picture digests must agree across shard counts.
func TestShardScenarioCOPPayload(t *testing.T) {
	sc := shardScenarios()["gossip-kill-sweep"]
	run := func(shards int) (uint64, int) {
		pics := make([]*cop.Picture, sc.Nodes)
		for i := range pics {
			pics[i] = cop.NewPicture(NodeID(i))
		}
		local := sc
		local.Payload = func(origin NodeID, seq uint64, at time.Duration) []byte {
			p := cop.NewPicture(origin)
			p.ObserveTrack(int(seq), cop.TrackFix{Pos: geo.Point{X: float64(origin), Y: float64(seq)}}, at)
			return p.Encode()
		}
		local.OnDeliver = func(node NodeID, key GossipKey, data []byte, at time.Duration) {
			if err := pics[node].MergeEncoded(data); err != nil {
				t.Errorf("node %d: merge payload %v: %v", node, key, err)
			}
		}
		res, err := RunShardScenario(404, shards, local)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("shards=%d violations: %v", shards, res.Violations)
		}
		merged := 0
		digest := uint64(0)
		for i, p := range pics {
			tracks, _, _ := p.Counts()
			if tracks > 0 {
				merged++
			}
			digest = digest*1099511628211 ^ p.Digest() ^ uint64(i)
		}
		return digest, merged
	}
	d1, m1 := run(1)
	d4, m4 := run(4)
	if m1 == 0 {
		t.Fatal("no node ever merged a COP payload")
	}
	if d1 != d4 || m1 != m4 {
		t.Errorf("COP replicas diverged across shard counts: 1-shard (%016x, %d) vs 4-shard (%016x, %d)", d1, m1, d4, m4)
	}
}

// TestShardScenarioModes sanity-checks the two protocol shapes: BFS
// reaches at least as many distinct destinations per publish as
// TTL-bounded gossip on the same field, and gossip pays duplicates for
// its redundancy.
func TestShardScenarioModes(t *testing.T) {
	base := ShardScenario{
		Nodes:        120,
		Horizon:      100 * time.Second,
		PublishUntil: 60 * time.Second,
		Publishers:   2,
	}
	gossip := base
	bfs := base
	bfs.Mode = ShardModeBFS
	gr, err := RunShardScenario(5, 2, gossip)
	if err != nil {
		t.Fatal(err)
	}
	br, err := RunShardScenario(5, 2, bfs)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Published != br.Published {
		t.Fatalf("modes published different loads: %d vs %d", gr.Published, br.Published)
	}
	if br.DeliveryRatio < gr.DeliveryRatio {
		t.Errorf("BFS flooding ratio %.3f below gossip %.3f", br.DeliveryRatio, gr.DeliveryRatio)
	}
	if br.Duplicates != 0 {
		t.Errorf("BFS baseline produced %d duplicates", br.Duplicates)
	}
	if gr.Delivered > 0 && gr.Duplicates == 0 {
		t.Logf("note: gossip produced no duplicates (unusually sparse field)")
	}
}

func TestShardScenarioValidation(t *testing.T) {
	if _, err := RunShardScenario(1, 2, ShardScenario{Nodes: 1}); err == nil {
		t.Error("one-node scenario accepted")
	}
	if _, err := RunShardScenario(1, 2, ShardScenario{Nodes: 10, Mode: "carrier-pigeon"}); err == nil {
		t.Error("unknown mode accepted")
	}
	// Tick phases are drawn as rng.Intn(cadence in ms): a sub-millisecond
	// cadence used to reach Intn(0) and panic.
	for _, tc := range []struct {
		field string
		sc    ShardScenario
	}{
		{"PublishEvery", ShardScenario{Nodes: 10, PublishEvery: 500 * time.Microsecond}},
		{"AntiEntropyEvery", ShardScenario{Nodes: 10, AntiEntropyEvery: 500 * time.Microsecond}},
		{"MobilityEvery", ShardScenario{Nodes: 10, MobilityEvery: 500 * time.Microsecond}},
	} {
		if _, err := RunShardScenario(1, 2, tc.sc); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s of 500µs: err = %v, want an error naming the field", tc.field, err)
		}
	}
	if _, err := RunShardScenario(1, 2, ShardScenario{Nodes: 10, Horizon: 5 * time.Second,
		PublishEvery: time.Millisecond, AntiEntropyEvery: time.Second, MobilityEvery: time.Millisecond}); err != nil {
		t.Errorf("1ms cadences rejected: %v", err)
	}
}

// TestShardScenarioDeliversUnderFaults guards against the scenarios
// degenerating into silence: even through partition+jam+kill, the
// overlay should still reach a meaningful share of the surviving
// population by the horizon (anti-entropy repairs the partition era).
func TestShardScenarioDeliversUnderFaults(t *testing.T) {
	sc := shardScenarios()["gossip-partition-jam-heal"]
	res, err := RunShardScenario(99, 4, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio <= 0.2 {
		t.Errorf("delivery ratio %.3f suspiciously low for a healed run", res.DeliveryRatio)
	}
	if res.Repairs == 0 {
		t.Error("anti-entropy never repaired anything through the partition")
	}
	if res.Events != res.Published+res.Delivered+res.Duplicates+res.DroppedDead {
		// Events also include ticks; just require it dominates the frames.
		if res.Events < res.Delivered {
			t.Errorf("event count %d below delivered %d", res.Events, res.Delivered)
		}
	}
}

// TestShardScenarioPublishUntilDefault pins the PublishUntil default,
// including the Horizon == 30s boundary where Horizon - 30s is exactly
// zero and must fall back to Horizon/2 rather than "publish once".
func TestShardScenarioPublishUntilDefault(t *testing.T) {
	for _, tc := range []struct {
		horizon, until, want time.Duration
	}{
		{horizon: 0, want: 210 * time.Second}, // default 240s horizon
		{horizon: 100 * time.Second, want: 70 * time.Second},
		{horizon: 30 * time.Second, want: 15 * time.Second},
		{horizon: 20 * time.Second, want: 10 * time.Second},
		{horizon: 30 * time.Second, until: 5 * time.Second, want: 5 * time.Second},
	} {
		sc := ShardScenario{Nodes: 10, Horizon: tc.horizon, PublishUntil: tc.until}.withDefaults()
		if sc.PublishUntil != tc.want {
			t.Errorf("Horizon=%v PublishUntil=%v: default %v, want %v", tc.horizon, tc.until, sc.PublishUntil, tc.want)
		}
	}
	res, err := RunShardScenario(3, 2, ShardScenario{Nodes: 40, Publishers: 2, Horizon: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published <= 2 {
		t.Errorf("Horizon=30s published %d payloads from 2 publishers: each published once and stopped", res.Published)
	}
}

// TestShardScenarioGolden pins absolute results, not only shard-count
// agreement: a rewrite that moved every shard count alike would pass
// the differential above. The values were captured from one run when
// sim.RNG's source became the in-tree SplitMix64 and relay began to draw
// its fanout with RNG.Sample — the last change allowed to move them for
// reasons of stream position.
func TestShardScenarioGolden(t *testing.T) {
	// In scenarioNames order.
	for i, want := range []ShardResult{
		{Digest: 0x743db53e0db1bcca, Published: 54, Delivered: 3393, Duplicates: 2710, Relays: 4521, Repairs: 1582, DroppedDead: 0, Events: 11788},
		{Digest: 0x4d4bd5a9272ef74d, Published: 63, Delivered: 2058, Duplicates: 2738, Relays: 4796, Repairs: 0, DroppedDead: 0, Events: 7235},
		{Digest: 0xebfcc936d38bfd67, Published: 47, Delivered: 2969, Duplicates: 0, Relays: 2969, Repairs: 0, DroppedDead: 0, Events: 5896},
		{Digest: 0x1c600f46e3a74f06, Published: 61, Delivered: 8596, Duplicates: 6975, Relays: 11501, Repairs: 4073, DroppedDead: 3, Events: 22824},
		{Digest: 0xe1e7916e19db85c8, Published: 30, Delivered: 3551, Duplicates: 0, Relays: 3612, Repairs: 0, DroppedDead: 61, Events: 6585},
	} {
		name := scenarioNames()[i]
		got, err := RunShardScenario(1, 2, shardScenarios()[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Violations) != 0 {
			t.Errorf("%s: violations %v", name, got.Violations)
		}
		if got.Digest != want.Digest || got.Published != want.Published || got.Delivered != want.Delivered ||
			got.Duplicates != want.Duplicates || got.Relays != want.Relays || got.Repairs != want.Repairs ||
			got.DroppedDead != want.DroppedDead || got.Events != want.Events {
			t.Errorf("%s:\n got digest=%016x pub=%d del=%d dup=%d rel=%d rep=%d drop=%d ev=%d\nwant digest=%016x pub=%d del=%d dup=%d rel=%d rep=%d drop=%d ev=%d",
				name, got.Digest, got.Published, got.Delivered, got.Duplicates, got.Relays, got.Repairs, got.DroppedDead, got.Events,
				want.Digest, want.Published, want.Delivered, want.Duplicates, want.Relays, want.Repairs, want.DroppedDead, want.Events)
		}
	}
}

// TestDeliveryRatioUnderAttrition: the ratio is the share of end-of-run
// live nodes holding a payload, so the dead's holdings must not count.
// They did, and these three read 1.08, 1.95 and 7.91.
func TestDeliveryRatioUnderAttrition(t *testing.T) {
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		res, err := RunShardScenario(2, 2, ShardScenario{
			Nodes: 200, Radio: 200, AntiEntropyEvery: 10 * time.Second, KillAt: 60 * time.Second, KillFrac: frac,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("KillFrac %.1f: violations %v", frac, res.Violations)
		}
		if res.DeliveryRatio <= 0.5 || res.DeliveryRatio > 1 {
			t.Errorf("KillFrac %.1f: delivery ratio %.3f, want in (0.5, 1] on a connected field", frac, res.DeliveryRatio)
		}
	}
}

// linkFields are the fields the link-state tests query: sparse, dense,
// a radio shorter than the drift amplitude (many nodes are never
// certainly in range), and every fault window at once.
func linkFields(t *testing.T) map[string]*shardRun {
	t.Helper()
	faults := ShardScenario{
		Nodes: 160, Radio: 170,
		KillAt: 35 * time.Second, KillFrac: 0.3,
		PartitionAt: 20 * time.Second, HealAt: 50 * time.Second,
		JamFrom: 30 * time.Second, JamTo: 70 * time.Second,
		JamZone: geo.NewRect(geo.Point{X: 200, Y: 100}, geo.Point{X: 1000, Y: 800}), JamIntensity: 0.6,
	}
	short := faults
	short.Radio = 20
	out := map[string]*shardRun{}
	for _, f := range []struct {
		name string
		sc   ShardScenario
	}{
		{"sparse", ShardScenario{Nodes: 150}},
		{"dense", ShardScenario{Nodes: 200, Radio: 260}},
		{"short", short},
		{"faults", faults},
	} {
		sc, err := f.sc.checked()
		if err != nil {
			t.Fatal(err)
		}
		out[f.name] = newShardRun(sim.NewRNG(11).Derive, 2, sc)
	}
	return out
}

// TestPeersMatchesBruteForce holds peers to its specification: at every
// time — inside, outside and exactly on each fault-window edge — it
// returns the ascending set of all b with linked(id, b, t), found here
// by asking linked about every node in the field.
func TestPeersMatchesBruteForce(t *testing.T) {
	for name, run := range linkFields(t) {
		sc := run.sc
		times := []time.Duration{0, time.Nanosecond, 7 * time.Second, 33*time.Second + 333*time.Millisecond, sc.Horizon}
		for _, edge := range []time.Duration{sc.KillAt, sc.PartitionAt, sc.HealAt, sc.JamFrom, sc.JamTo} {
			if edge > 0 {
				times = append(times, edge-time.Nanosecond, edge, edge+time.Nanosecond)
			}
		}
		var got, want []NodeID
		var links, bounded int
		for _, at := range times {
			for a := 0; a < sc.Nodes; a++ {
				want = want[:0]
				for b := 0; b < sc.Nodes; b++ {
					if run.linked(NodeID(a), NodeID(b), at) {
						want = append(want, NodeID(b))
					}
				}
				got = run.peers(got, NodeID(a), at)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: peers(%d, %v) = %v, linked says %v", name, a, at, got, want)
				}
				links += len(want)
			}
		}
		// Sampled times rarely catch two nodes at full stray towards each
		// other, so the table is also held to the worst case directly: a
		// pair left out must be out of range even then.
		for a := 0; a < sc.Nodes; a++ {
			cand := run.cand[run.candStart[a]:run.candStart[a+1]]
			if !slices.IsSorted(cand) {
				t.Fatalf("%s: candidates of %d not ascending: %v", name, a, cand)
			}
			for b := 0; b < sc.Nodes; b++ {
				closest := run.field.Home(a).Dist(run.field.Home(b)) - run.field.Stray(a) - run.field.Stray(b)
				if _, in := slices.BinarySearch(cand, NodeID(b)); !in && a != b && closest <= sc.Radio {
					t.Fatalf("%s: %d and %d can come within %.3f m but %d is no candidate of %d", name, a, b, closest, b, a)
				}
			}
		}
		for _, e := range run.ends {
			if e.accept > 0 {
				bounded++
			}
		}
		if links == 0 {
			t.Errorf("%s: no pair was ever linked; the oracle compared empty sets", name)
		}
		// Only the short radio leaves nodes that can stray a whole Radio
		// from home, and it must leave some on each side.
		if short := name == "short"; short == (bounded == sc.Nodes) || bounded == 0 {
			t.Errorf("%s: %d of %d nodes have an accept bound", name, bounded, sc.Nodes)
		}
	}
}

// TestPeersSteadyStateAllocatesNothing: with a list as long as the
// longest candidate list, a query is table reads and arithmetic.
func TestPeersSteadyStateAllocatesNothing(t *testing.T) {
	run := linkFields(t)["faults"]
	buf := make([]NodeID, 0, run.sc.Nodes)
	var id NodeID
	at := 31 * time.Second // partitioned and jammed: the exact rule runs too
	if allocs := testing.AllocsPerRun(200, func() {
		buf = run.peers(buf, id, at)
		id = (id + 1) % NodeID(run.sc.Nodes)
		at += 10 * time.Millisecond
	}); allocs != 0 {
		t.Errorf("peers allocates %.1f times per call, want 0", allocs)
	}
}

// TestHeldSetFollowsPublishSchedule checks the slot function against a
// schedule worked out by hand, that a key with no slot is refused and
// reported rather than stored somewhere else, and that the log and the
// counters it is checked against move together.
func TestHeldSetFollowsPublishSchedule(t *testing.T) {
	sc, err := ShardScenario{Nodes: 40, Publishers: 4, PublishEvery: 10 * time.Second,
		PublishUntil: 25 * time.Second, Horizon: 60 * time.Second}.checked()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewSharded(1, sim.ShardedConfig{Shards: 1})
	run := newShardRun(eng.Stream, 1, sc)
	// Publishers 0, 10, 20, 30; first publish in [1s, 11s), so at most
	// three fall at or before 25s.
	if run.stride != 10 || run.slots != 3 {
		t.Fatalf("stride %d slots %d, want 10 and 3", run.stride, run.slots)
	}
	for key, want := range map[GossipKey]int{
		{Origin: 0, Seq: 0}: 0, {Origin: 10, Seq: 2}: 5, {Origin: 30, Seq: 2}: 11,
		{Origin: 5, Seq: 0}: -1, {Origin: 0, Seq: 3}: -1, {Origin: 40, Seq: 0}: -1,
	} {
		if got := run.slot(key); got != want {
			t.Errorf("slot(%v) = %d, want %d", key, got, want)
		}
	}
	for i := range run.nodes {
		run.nodes[i] = &shardNode{id: NodeID(i), held: make([]uint64, 1)}
	}
	if res := run.collect(eng, 1); len(res.Violations) != 0 {
		t.Fatalf("empty run: violations %v", res.Violations)
	}

	n := run.nodes[7]
	if !run.hold(n, &frame{key: GossipKey{Origin: 10, Seq: 1}}) || run.hold(n, &frame{key: GossipKey{Origin: 10, Seq: 1}}) {
		t.Fatal("hold must accept a key once")
	}
	n.delivered++
	run.nodes[10].pubSeq = 2
	if res := run.collect(eng, 1); len(res.Violations) != 0 || len(n.log) != 1 {
		t.Fatalf("one held, one counted: log %d, violations %v", len(n.log), res.Violations)
	}
	if run.hold(n, &frame{key: GossipKey{Origin: 10, Seq: 3}}) || len(n.log) != 1 {
		t.Fatal("a key past the schedule was held")
	}
	res := run.collect(eng, 1)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "outside the publish schedule") {
		t.Errorf("off-schedule key: violations %v, want the schedule law alone", res.Violations)
	}
	n.offSchedule = 0
	n.delivered++
	res = run.collect(eng, 1)
	if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "node 7 holds 1 payloads") {
		t.Errorf("a delivery counted but not held: violations %v, want law 1 alone", res.Violations)
	}
}

// mallocsOf runs a scenario on one shard and returns its result and the
// heap objects the run allocated.
func mallocsOf(t *testing.T, seed int64, sc ShardScenario) (*ShardResult, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunShardScenario(seed, 1, sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations %v", res.Violations)
	}
	return res, after.Mallocs - before.Mallocs
}

// TestShardGossipAllocsFollowFrames: a publish allocates its frame and a
// copy allocates nothing. Doubling the publishes of a 2,000-node run on
// one horizon adds tens of thousands of relays; what they add in
// allocations is the extra frames and one more growth of each node's
// holdings, a small fraction of one a relay. A receive closure built per
// copy reads about 1.
func TestShardGossipAllocsFollowFrames(t *testing.T) {
	single := gossipBareShape(2000, 2)
	double := gossipBareShape(2000, 4)
	single.Horizon = double.Horizon
	one, oneAllocs := mallocsOf(t, 3, single)
	two, twoAllocs := mallocsOf(t, 3, double)
	if two.Published != 2*one.Published || two.Relays <= one.Relays {
		t.Fatalf("published %d then %d, relays %d then %d: the second run does not double the work",
			one.Published, two.Published, one.Relays, two.Relays)
	}
	extraAllocs := float64(twoAllocs) - float64(oneAllocs)
	extraRelays := float64(two.Relays - one.Relays)
	if ratio := extraAllocs / extraRelays; ratio >= 0.25 {
		t.Errorf("%.0f extra allocations for %.0f extra relays (%.3f a relay), want under 0.25", extraAllocs, extraRelays, ratio)
	}
}

// TestShardTTLTableIsBounded: the receive table stops at Nodes entries.
// No chain of copies is longer than Nodes−1 hops, so the bound changes
// nothing a run does, and a TTL far past Nodes builds no more closures
// than a TTL of Nodes.
func TestShardTTLTableIsBounded(t *testing.T) {
	sc := ShardScenario{Nodes: 300, Radio: 200, Publishers: 4, Horizon: 60 * time.Second, PublishUntil: 30 * time.Second}
	sc.TTL = 1 << 20
	huge, hugeAllocs := mallocsOf(t, 9, sc)
	sc.TTL = sc.Nodes
	exact, exactAllocs := mallocsOf(t, 9, sc)
	if huge.Digest != exact.Digest || huge.Relays != exact.Relays || huge.Events != exact.Events {
		t.Errorf("TTL 1<<20: digest %016x relays %d events %d; TTL %d: digest %016x relays %d events %d",
			huge.Digest, huge.Relays, huge.Events, sc.Nodes, exact.Digest, exact.Relays, exact.Events)
	}
	if hugeAllocs > exactAllocs+64 {
		t.Errorf("TTL 1<<20 allocated %d objects, TTL %d %d: the table is not bounded by Nodes", hugeAllocs, sc.Nodes, exactAllocs)
	}
}
