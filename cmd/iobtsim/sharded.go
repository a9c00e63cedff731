package main

// The -shards path: instead of the classic sequential mission, run the
// COP dissemination scenario on the spatially sharded engine
// (internal/sim.Sharded via mesh.RunShardScenario). The shard count is
// a pure performance knob — -replay-verify proves it by running the
// same seed at 1 shard and at -shards shards and diffing the journals
// byte for byte.

import (
	"fmt"
	"hash/fnv"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/cop"
	"iobt/internal/geo"
	"iobt/internal/mesh"
)

// shardedScenario derives the dissemination workload from the mission
// flags: the asset count becomes the node population and the mission
// duration the virtual horizon. Publishers gossip their CRDT picture
// replicas; receivers merge them, so the run exercises mesh, cop, and
// the sharded engine together.
func shardedScenario(assets int, horizon time.Duration) mesh.ShardScenario {
	return mesh.ShardScenario{
		Nodes:            assets,
		Horizon:          horizon,
		AntiEntropyEvery: 15 * time.Second,
		TTL:              64,
	}
}

// shardedOnce runs the scenario at one shard count and returns the
// result plus a fingerprint covering the overlay digest and every
// node's merged COP picture digest in ID order.
func shardedOnce(seed int64, shards, assets int, horizon time.Duration) (*mesh.ShardResult, uint64, error) {
	sc := shardedScenario(assets, horizon)
	pics := make([]*cop.Picture, sc.Nodes)
	for i := range pics {
		pics[i] = cop.NewPicture(mesh.NodeID(i))
	}
	sc.Payload = func(origin mesh.NodeID, seq uint64, at time.Duration) []byte {
		p := pics[origin]
		p.Cover(cop.Cell{X: int32(seq), Y: int32(origin)})
		p.ObserveTrack(int(seq), cop.TrackFix{Pos: geo.Point{X: float64(origin), Y: float64(seq)}}, at)
		return p.Encode()
	}
	sc.OnDeliver = func(node mesh.NodeID, key mesh.GossipKey, data []byte, at time.Duration) {
		_ = pics[node].MergeEncoded(data) // a frame that fails to decode cannot regress the replica; delivery counting happens in the overlay
	}
	res, err := mesh.RunShardScenario(seed, shards, sc)
	if err != nil {
		return nil, 0, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%d|%d|%d|%d", res.Digest, res.Published, res.Delivered, res.Events, res.ClampedSends)
	for i, p := range pics {
		fmt.Fprintf(h, "|%d:%x", i, p.Digest())
	}
	return res, h.Sum64(), nil
}

func runSharded(seed int64, shards, assets int, horizon time.Duration, replay, verif bool) error {
	if assets < 2 {
		return fmt.Errorf("sharded run needs at least 2 assets, got %d", assets)
	}
	if replay {
		// Cross-shard-count equivalence: the 1-shard reference and the
		// requested shard count must log byte-identical journals.
		runAt := func(n int) func(*checkpoint.Journal) {
			return func(j *checkpoint.Journal) {
				res, fp, err := shardedOnce(seed, n, assets, horizon)
				if err != nil {
					j.Logf(0, "error: %v", err)
					return
				}
				j.Logf(0, "published=%d delivered=%d dup=%d repairs=%d ratio=%.6f events=%d clamped=%d violations=%d fingerprint=%016x",
					res.Published, res.Delivered, res.Duplicates, res.Repairs,
					res.DeliveryRatio, res.Events, res.ClampedSends, len(res.Violations), fp)
			}
		}
		plan := fmt.Sprintf("sharded assets=%d shards=1 vs %d", assets, shards)
		if div := checkpoint.VerifyEquivalence(seed, plan, runAt(1), runAt(shards)); div != nil {
			return fmt.Errorf("%w: shard counts diverged: %s", errVerification, div.Error())
		}
		fmt.Printf("cross-shard verification OK: 1-shard and %d-shard runs produced byte-identical journals\n", shards)
		return nil
	}

	start := time.Now() //iobt:allow detrand wall-clock throughput reporting for the host run, never read inside the simulated world
	res, fp, err := shardedOnce(seed, shards, assets, horizon)
	if err != nil {
		return err
	}
	wall := time.Since(start) //iobt:allow detrand same wall-clock throughput measurement as above

	fmt.Printf("sharded engine: %d shards, %d assets, horizon %s\n", res.Shards, res.Nodes, horizon)
	fmt.Printf("  published=%d delivered=%d duplicates=%d repairs=%d dropped=%d\n",
		res.Published, res.Delivered, res.Duplicates, res.Repairs, res.DroppedDead)
	fmt.Printf("  delivery ratio:   %.3f\n", res.DeliveryRatio)
	fmt.Printf("  events:           %d (%.0f events/s over %s wall)\n",
		res.Events, float64(res.Events)/wall.Seconds(), wall.Round(time.Millisecond))
	fmt.Printf("  clamped sends:    %d\n", res.ClampedSends)
	fmt.Printf("  violations:       %d\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("    %s\n", v)
	}
	fmt.Printf("  fingerprint: %016x\n", fp)
	if verif && len(res.Violations) > 0 {
		return fmt.Errorf("%w: %d conservation violations", errVerification, len(res.Violations))
	}
	return nil
}
