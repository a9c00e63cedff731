package mesh

import (
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/cop"
	"iobt/internal/geo"
)

// shardScenarios are the representative dissemination workloads the
// differential suite replays at every shard count: an E17-style gossip
// run through partition, jamming, and heal; an E14-style permanent
// fault sweep; and the BFS flooding baseline.
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
	}
}

func scenarioNames() []string {
	return []string{"gossip-partition-jam-heal", "gossip-kill-sweep", "bfs-baseline"}
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
// checkpoint.VerifyEquivalence) and zero conservation violations.
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

// TestShardScenarioClampedSends drives a hop latency below the engine's
// 100ms lookahead so the runtime clamp fires, and asserts the counter
// is populated in the result and shard-count invariant — clamping is a
// pure function of the model's stated delays, never of the partition.
// (The stock scenarios use 120ms hops, so their clamp count is zero;
// this is the one place the floor is deliberately undercut.)
func TestShardScenarioClampedSends(t *testing.T) {
	sc := ShardScenario{Nodes: 32, HopLatency: 20 * time.Millisecond, Horizon: 60 * time.Second}
	ref, err := RunShardScenario(5, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ClampedSends == 0 {
		t.Fatal("20ms hops against a 100ms lookahead produced no clamped sends; the counter is dead")
	}
	for _, shards := range []int{2, 4} {
		res, err := RunShardScenario(5, shards, sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.ClampedSends != ref.ClampedSends {
			t.Errorf("shards=%d: ClampedSends = %d, want %d (shard-count invariant)", shards, res.ClampedSends, ref.ClampedSends)
		}
		if res.Digest != ref.Digest {
			t.Errorf("shards=%d: digest %016x differs from 1-shard %016x", shards, res.Digest, ref.Digest)
		}
	}
}

// TestShardScenarioReplay asserts plain same-configuration determinism
// through the standard replay verifier.
func TestShardScenarioReplay(t *testing.T) {
	sc := shardScenarios()["gossip-partition-jam-heal"]
	if d := checkpoint.VerifyReplay(13, "shardnet-replay", func(j *checkpoint.Journal) {
		res, err := RunShardScenario(13, 4, sc)
		if err != nil {
			t.Fatal(err)
		}
		journalResult(j, res)
	}); d != nil {
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
			tracks, _, _, _ := p.Counts()
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
