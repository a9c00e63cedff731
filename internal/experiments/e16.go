package experiments

import (
	"time"

	"iobt/internal/service"
	"iobt/internal/verify"
)

// E16Service measures the mission service under a synthetic client
// flood: concurrent clients push scenarios through the bounded
// admission queue while the chaos injector crashes workers mid-mission,
// swept over the worker-pool size. It reports sustained throughput,
// tail submit-to-first-event latency, and how long a crashed mission
// takes to produce its first recovered event — the service-level
// numbers behind the paper's "IoBT as a long-lived service" story:
// failures are contained per mission, recovery is checkpoint-anchored,
// and the invariant registry audits every run.
func E16Service(seed int64, quick bool) *Table {
	t := &Table{
		ID:    "E16",
		Title: "mission service under client flood with injected worker crashes",
		Header: []string{"workers", "missions", "crashes", "restarts", "recovered",
			"missions/s", "p50 first-event (ms)", "p99 first-event (ms)",
			"mean recovery (ms)", "completed", "degraded/failed"},
		Notes: "every crashed mission is recovered from its latest checkpoint and still completes; " +
			"a mission in restart backoff holds no worker, so once the pool keeps the host's CPUs busy " +
			"a larger pool adds no throughput, and recovery time stays flat — the backoff plus a " +
			"re-run of only the window since the last checkpoint cut, not the whole mission",
	}

	pools := []int{2, 4, 8}
	missions := 24
	if quick {
		pools = []int{2, 4}
		missions = 12
	}

	var verif verify.Summary
	for _, workers := range pools {
		rep, err := service.Flood(service.FloodConfig{
			Missions: missions,
			Clients:  4,
			BaseSeed: seed,
			Service: service.Config{
				Workers:    workers,
				QueueDepth: 8,
				Chaos:      service.ChaosConfig{CrashProb: 0.4},
			},
			Horizon: 30 * time.Second,
		})
		if err != nil {
			t.AddRow(d(workers), "flood failed: "+err.Error(), "", "", "", "", "", "", "", "", "")
			continue
		}
		verif.Merge(rep.Summary)
		t.AddRow(
			d(workers),
			d(rep.Missions),
			d(int(rep.Crashes)),
			d(int(rep.Restarts)),
			d(int(rep.Recoveries)),
			f2(rep.MissionsPerSec),
			f2(rep.P50FirstEventMs),
			f2(rep.P99FirstEventMs),
			f2(rep.MeanRecoveryMs),
			d(int(rep.Completed)),
			d(int(rep.Degraded+rep.Failed+rep.Quarantined)),
		)
	}
	t.Verification = &verif
	return t
}
