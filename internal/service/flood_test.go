package service

import (
	"testing"
	"time"

	"iobt/internal/sim"
)

// TestRetryWait pins the client backoff contract: the server's hint is
// the floor, jitter adds at most 50%, a missing hint falls back to the
// 2ms flood default, and the same seed stream reproduces the same waits.
func TestRetryWait(t *testing.T) {
	rng := sim.NewRNG(77).Derive("flood.client.0")
	for i := 0; i < 200; i++ {
		hint := 10 * time.Millisecond
		w := retryWait(hint, rng)
		if w < hint || w > hint+hint/2 {
			t.Fatalf("wait %v outside [%v, %v]", w, hint, hint+hint/2)
		}
	}
	if w := retryWait(0, sim.NewRNG(77).Derive("x")); w < 2*time.Millisecond || w > 3*time.Millisecond {
		t.Errorf("zero hint wait = %v, want within [2ms, 3ms]", w)
	}
	a, b := sim.NewRNG(9).Derive("flood.client.1"), sim.NewRNG(9).Derive("flood.client.1")
	for i := 0; i < 50; i++ {
		if wa, wb := retryWait(time.Second, a), retryWait(time.Second, b); wa != wb {
			t.Fatalf("same stream diverged at %d: %v vs %v", i, wa, wb)
		}
	}
}

// TestFloodReport runs a small client flood through a deliberately
// narrow queue with chaos crashes and checks the report's accounting:
// every mission terminal, latency percentiles ordered, crash/recovery
// counters consistent, and the merged invariant audit non-empty.
func TestFloodReport(t *testing.T) {
	rep, err := Flood(FloodConfig{
		Missions: 8,
		Clients:  3,
		BaseSeed: 6100,
		Horizon:  20 * time.Second,
		Service: Config{
			Workers:    2,
			QueueDepth: 2,
			Chaos:      ChaosConfig{CrashProb: 0.5},
		},
	})
	if err != nil {
		t.Fatalf("flood: %v", err)
	}
	terminal := rep.Completed + rep.Degraded + rep.Failed + rep.Quarantined
	if terminal != 8 || rep.Admitted != 8 {
		t.Fatalf("accounting: admitted=%d terminal=%d, want 8/8", rep.Admitted, terminal)
	}
	// Submitted counts every attempt, including 429-rejected retries
	// through the depth-2 queue.
	if rep.Submitted != rep.Admitted+rep.Retried {
		t.Errorf("submitted=%d != admitted=%d + retried=%d",
			rep.Submitted, rep.Admitted, rep.Retried)
	}
	if rep.Completed != 8 {
		t.Errorf("completed=%d degraded=%d failed=%d quarantined=%d, want all 8 completed",
			rep.Completed, rep.Degraded, rep.Failed, rep.Quarantined)
	}
	if rep.MissionsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Errorf("throughput not measured: %+v", rep)
	}
	if rep.P50FirstEventMs <= 0 || rep.P99FirstEventMs < rep.P50FirstEventMs {
		t.Errorf("latency percentiles inconsistent: p50=%.2f p99=%.2f",
			rep.P50FirstEventMs, rep.P99FirstEventMs)
	}
	if rep.Crashes == 0 {
		t.Fatal("chaos at prob 0.5 over 8 seeds never crashed: flood exercised nothing")
	}
	// Recoveries counts checkpoint-anchored restarts only; a crash that
	// lands before the mission's first cut restarts from scratch.
	if rep.Recoveries == 0 || rep.Recoveries > rep.Crashes {
		t.Errorf("recovery accounting: crashes=%d recoveries=%d", rep.Crashes, rep.Recoveries)
	}
	if rep.MeanRecoveryMs <= 0 || rep.MaxRecoveryMs < rep.MeanRecoveryMs {
		t.Errorf("recovery timing: mean=%.2f max=%.2f", rep.MeanRecoveryMs, rep.MaxRecoveryMs)
	}
	if rep.Violations != 0 {
		t.Errorf("flood reported %d invariant violations", rep.Violations)
	}
	if rep.Summary.Checks == 0 {
		t.Error("merged invariant audit is empty")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 3}, {0.99, 5}, {0.01, 1}}
	for _, tc := range cases {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(%.2f) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty = %g, want 0", got)
	}
}

// TestMissionStateStrings pins the state names served over HTTP.
func TestMissionStateStrings(t *testing.T) {
	cases := []struct {
		s    MissionState
		name string
	}{
		{StateQueued, "queued"},
		{StateRunning, "running"},
		{StateRestarting, "restarting"},
		{StateCompleted, "completed"},
		{StateDegraded, "degraded"},
		{StateFailed, "failed"},
		{StateQuarantined, "quarantined"},
		{MissionState(99), "MissionState(99)"},
	}
	for _, tc := range cases {
		if got := tc.s.String(); got != tc.name {
			t.Errorf("String(%d) = %q, want %q", int(tc.s), got, tc.name)
		}
	}
}
