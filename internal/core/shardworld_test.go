package core

import (
	"testing"

	"iobt/internal/checkpoint"
)

// shardMissionConfig is the representative workload the differential
// suite replays at every shard count: enough assets to spread across 8
// shards, with the fixed fault schedule exercising every health
// transition and max(3, 96/8) = 12 incidents flowing tracks to the post.
func shardMissionConfig() ShardMissionConfig {
	return ShardMissionConfig{Assets: 96}
}

// journalShardMission logs every shard-count-invariant result field, so
// a journal diff catches any divergence between runs.
func journalShardMission(j *checkpoint.Journal, res *ShardMissionResult) {
	j.Logf(0, "assets=%d incidents=%d hrep=%d trep=%d stale=%d changes=%d det=%d picture=%d h/d/c=%d/%d/%d tracked=%d mission=%s events=%d clamped=%d violations=%d digest=%016x",
		res.Assets, res.Incidents, res.HealthReports, res.TrackReports, res.StaleReports,
		res.HealthChanges, res.Detections, res.PictureAssets,
		res.PostHealthy, res.PostDegraded, res.PostCritical, res.TrackedIncidents,
		res.MissionHealth, res.Events, res.ClampedSends, len(res.Violations), res.Digest)
}

// TestShardMissionDeterminismAcrossShardCounts is the migration slice's
// headline differential: the same seed at 1, 2, 4, and 8 shards must
// produce byte-identical journals (checked by
// checkpoint.VerifyEquivalence) and zero conservation violations — the
// proof that moving Runtime's shared health/track maps into owner-only
// actor state with mailbox messaging preserved the model.
func TestShardMissionDeterminismAcrossShardCounts(t *testing.T) {
	const seed = 41
	cfg := shardMissionConfig()
	runAt := func(shards int) func(*checkpoint.Journal) {
		return func(j *checkpoint.Journal) {
			res, err := RunShardMission(seed, shards, cfg)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			for _, v := range res.Violations {
				t.Errorf("shards=%d conservation violation: %s", shards, v)
			}
			if res.HealthReports == 0 || res.TrackedIncidents == 0 {
				t.Fatalf("shards=%d degenerate run: hrep=%d tracked=%d", shards, res.HealthReports, res.TrackedIncidents)
			}
			journalShardMission(j, res)
		}
	}
	if d := checkpoint.VerifyEquivalence(seed, "shard-mission",
		runAt(1), runAt(2), runAt(4), runAt(8)); d != nil {
		t.Errorf("shard counts diverged: %v", d)
	}
}

// TestShardMissionReplay asserts plain same-configuration determinism
// through the standard replay verifier.
func TestShardMissionReplay(t *testing.T) {
	cfg := shardMissionConfig()
	run := func(j *checkpoint.Journal) {
		res, err := RunShardMission(7, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		journalShardMission(j, res)
	}
	if d := checkpoint.VerifyEquivalence(7, "shard-mission-replay", run, run); d != nil {
		t.Errorf("replay diverged: %v", d)
	}
}

// TestShardMissionPicture checks the post's mailbox-fed picture against
// the per-asset ground truth: every asset reports at least its initial
// Healthy transition well before the horizon, so the picture must cover
// the full population; the fault schedule guarantees degradations; and
// in-order per-asset delivery means the sequence guard never fires.
func TestShardMissionPicture(t *testing.T) {
	res, err := RunShardMission(41, 4, shardMissionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.PictureAssets != res.Assets {
		t.Errorf("post picture covers %d of %d assets", res.PictureAssets, res.Assets)
	}
	if res.PostHealthy+res.PostDegraded+res.PostCritical != res.PictureAssets {
		t.Errorf("picture partition %d+%d+%d does not cover %d assets",
			res.PostHealthy, res.PostDegraded, res.PostCritical, res.PictureAssets)
	}
	if res.PostDegraded == 0 && res.PostCritical == 0 {
		t.Error("fault schedule produced no degraded or critical assets in the picture")
	}
	if res.MissionHealth != Degraded && res.MissionHealth != Critical {
		t.Errorf("mission health %s despite a degraded force", res.MissionHealth)
	}
	if res.StaleReports != 0 {
		t.Errorf("%d stale reports despite in-order per-asset delivery", res.StaleReports)
	}
	if res.Detections == 0 || res.TrackReports == 0 {
		t.Errorf("no detections flowed to the post: det=%d trep=%d", res.Detections, res.TrackReports)
	}
	if res.ClampedSends != 0 {
		t.Errorf("%d clamped sends with reportLatency above the lookahead floor", res.ClampedSends)
	}
}

func TestShardMissionValidation(t *testing.T) {
	if _, err := RunShardMission(1, 2, ShardMissionConfig{Assets: 1}); err == nil {
		t.Error("one-asset mission accepted")
	}
}
