package service

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/fault"
	"iobt/internal/verify"
)

// recoveryScenario is the crash-recovery workhorse: hierarchy command
// over the ARQ layer (so the checkpoint carries the in-flight window,
// the hardest section to recover), a fault plan with a jam wave, and a
// checkpoint cadence tight enough that the injected crash lands well
// past several cuts.
func recoveryScenario(seed int64) verify.Scenario {
	plan := &fault.Plan{Name: "recovery"}
	plan.Add(fault.Fault{Kind: fault.JamWave, At: 12 * time.Second,
		Duration: 10 * time.Second, Intensity: 0.6})
	return verify.Scenario{
		Seed:       seed,
		Assets:     100,
		Size:       600,
		Terrain:    "open",
		Command:    "hierarchy",
		Reliable:   true,
		Checkpoint: 5 * time.Second,
		Rate:       20,
		Horizon:    40 * time.Second,
		Track:      true,
		Plan:       plan,
	}
}

// runOne submits sc to a fresh service with the given config and waits
// for the mission to reach a terminal state via Drain.
func runOne(t *testing.T, cfg Config, sc verify.Scenario) *Mission {
	t.Helper()
	svc := New(cfg)
	m, err := svc.SubmitScenario(sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := m.State(); !terminal(st) {
		t.Fatalf("mission not terminal after drain: %s", st)
	}
	return m
}

// recoveryVariants are recoveryScenario(seed) and the same mission with
// each optional scenario part: churn, the gossip overlay, and the
// mission stated as an intent section.
func recoveryVariants(seed int64) map[string]verify.Scenario {
	base := recoveryScenario(seed)
	churn, gossip, spec := base, base, base
	churn.Churn = true
	gossip.Gossip = true
	spec.Command, spec.Rate = "", 0
	spec.Intent = "mission \"recovery\"\narea (120,120)-(480,480)\ncover 40%\ncommand hierarchy levels 3\nrate 20/min"
	return map[string]verify.Scenario{"base": base, "churn": churn, "gossip": gossip, "intent": spec}
}

// TestCrashRecoveryByteIdentical is the acceptance demo, machine-checked:
// kill a worker mid-flight, let the supervisor restore the mission from
// its persisted checkpoint, and require the completed mission to be
// byte-identical — journal and metrics fingerprint — to an uncrashed
// same-seed run, whose fingerprint is verify.Run's.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	for name, sc := range recoveryVariants(1201) {
		t.Run(name, func(t *testing.T) {
			crashed := runOne(t, Config{
				Workers: 1,
				DataDir: t.TempDir(),
				Chaos:   ChaosConfig{CrashProb: 1, AtFrac: 0.6},
			}, sc)
			if crashed.State() != StateCompleted {
				t.Fatalf("crashed mission ended %s (%s), want completed", crashed.State(), crashed.Reason())
			}
			if crashed.Restarts() == 0 {
				t.Fatal("chaos crash did not trigger a supervised restart")
			}
			if crashed.View().RecoveredFrom == 0 {
				t.Fatal("recovery was not anchored at a persisted checkpoint")
			}
			if n := len(crashed.RecoveryTimes()); n == 0 {
				t.Error("no recovery time was measured")
			}

			clean := runOne(t, Config{Workers: 1}, sc)
			if clean.State() != StateCompleted {
				t.Fatalf("clean mission ended %s (%s), want completed", clean.State(), clean.Reason())
			}

			if div := checkpoint.Compare(crashed.journal, clean.journal); div != nil {
				t.Fatalf("recovered journal diverges from uncrashed run:\n%s", div)
			}
			if a, b := crashed.Fingerprint(), clean.Fingerprint(); a != b {
				t.Fatalf("metrics fingerprint %016x != uncrashed %016x", a, b)
			}
			if a, b := clean.Fingerprint(), verify.Run(sc).Fingerprint; a != b {
				t.Fatalf("service fingerprint %016x != verify.Run's %016x", a, b)
			}
		})
	}
}

// TestStallRecovery wedges the worker instead of panicking: the
// watchdog must detect the missing progress heartbeat, cancel the
// attempt, and the supervisor must recover it to the same byte-identical
// completion.
func TestStallRecovery(t *testing.T) {
	sc := recoveryScenario(1301)
	stalled := runOne(t, Config{
		Workers:    1,
		DataDir:    t.TempDir(),
		StallAfter: 200 * time.Millisecond,
		Chaos:      ChaosConfig{CrashProb: 1, AtFrac: 0.5, Stall: true},
	}, sc)
	if stalled.State() != StateCompleted {
		t.Fatalf("stalled mission ended %s (%s), want completed", stalled.State(), stalled.Reason())
	}
	if stalled.Restarts() == 0 {
		t.Fatal("watchdog stall did not trigger a restart")
	}

	clean := runOne(t, Config{Workers: 1}, sc)
	if div := checkpoint.Compare(stalled.journal, clean.journal); div != nil {
		t.Fatalf("stall-recovered journal diverges:\n%s", div)
	}
}

// TestRunnerVerifyReplay pins the service runner itself to the repo's
// replay contract: two bare runner passes of the same scenario must
// journal byte-identically under checkpoint.VerifyEquivalence.
func TestRunnerVerifyReplay(t *testing.T) {
	sc := recoveryScenario(1401)
	run := func(j *checkpoint.Journal) {
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		out, err := runAttempt(attemptParams{
			sc: sc, ctx: ctx, cancel: cancel, journal: j,
		})
		if err != nil {
			t.Fatalf("runAttempt: %v", err)
		}
		if out.events == 0 {
			t.Fatal("runner executed no events")
		}
	}
	if div := checkpoint.VerifyEquivalence(sc.Seed, planString(sc), run, run); div != nil {
		t.Fatalf("service runner is not replay-stable:\n%s", div)
	}
}

// TestRecoveryAcrossStoreReopen proves the anchor really is the disk
// record, not in-process memory: recover a mission whose checkpoint
// journal was written by a different service instance (a "restarted
// process"), seeding recovery purely from the recovered file.
func TestRecoveryAcrossStoreReopen(t *testing.T) {
	sc := recoveryScenario(1501)
	dir := t.TempDir()

	// First service: crash the mission on every attempt so it ends
	// quarantined, leaving durable checkpoints behind.
	svc := New(Config{
		Workers:     1,
		DataDir:     dir,
		MaxRestarts: 1,
		Chaos:       ChaosConfig{CrashProb: 1, AtFrac: 0.6, CrashAttempts: 99},
	})
	m1, err := svc.SubmitScenario(sc)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m1.State() != StateQuarantined {
		t.Fatalf("always-crashing mission ended %s, want quarantined", m1.State())
	}
	recs, err := checkpoint.RecoverStore(filepath.Join(dir, m1.ID+".ckpt"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no durable checkpoints survived the crash loop: %d records, err %v", len(recs), err)
	}

	// Second service, same data dir: submit the same scenario chaos-free.
	// Its mission gets the same ID (fresh service, same ordering), so
	// OpenStore recovers the first instance's records and the very first
	// attempt starts as a recovery, anchored at the durable cut.
	svc2 := New(Config{Workers: 1, DataDir: dir})
	m2, err := svc2.SubmitScenario(sc)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if m2.ID != m1.ID {
		t.Fatalf("mission IDs diverge across instances: %s vs %s", m2.ID, m1.ID)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	if err := svc2.Drain(ctx2); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
	if m2.State() != StateCompleted {
		t.Fatalf("recovered mission ended %s (%s), want completed", m2.State(), m2.Reason())
	}
	if m2.View().RecoveredFrom == 0 {
		t.Fatal("second instance did not anchor at the recovered checkpoint")
	}

	clean := runOne(t, Config{Workers: 1}, sc)
	if div := checkpoint.Compare(m2.journal, clean.journal); div != nil {
		t.Fatalf("cross-process recovery diverges from uncrashed run:\n%s", div)
	}
}

// TestQuarantineBoundsRestartStorm pins the quarantine bound: a mission
// that crashes on every attempt consumes exactly MaxRestarts restarts
// and then stops, without wedging its worker forever.
func TestQuarantineBoundsRestartStorm(t *testing.T) {
	sc := recoveryScenario(1601)
	m := runOne(t, Config{
		Workers:     1,
		MaxRestarts: 2,
		BackoffBase: time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 1, AtFrac: 0.5, CrashAttempts: 99},
	}, sc)
	if m.State() != StateQuarantined {
		t.Fatalf("crash-looping mission ended %s, want quarantined", m.State())
	}
	if got := m.Restarts(); got != 2 {
		t.Errorf("restarts = %d, want exactly MaxRestarts (2)", got)
	}
	if got := m.Attempts(); got != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 restarts)", got)
	}
}

// TestCrashDoesNotDisturbNeighbor runs a crashing mission and a clean
// mission concurrently on a 2-worker pool: the neighbor must complete
// with a journal identical to running it alone.
func TestCrashDoesNotDisturbNeighbor(t *testing.T) {
	crashy := recoveryScenario(1701)
	quiet := recoveryScenario(1702)

	svc := New(Config{
		Workers: 2,
		DataDir: t.TempDir(),
		// Chaos draws per-seed; CrashProb 1 hits both, which is fine — the
		// point is isolation, and both must still complete.
		Chaos: ChaosConfig{CrashProb: 1, AtFrac: 0.5},
	})
	mc, err := svc.SubmitScenario(crashy)
	if err != nil {
		t.Fatalf("submit crashy: %v", err)
	}
	mq, err := svc.SubmitScenario(quiet)
	if err != nil {
		t.Fatalf("submit quiet: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if mc.State() != StateCompleted || mq.State() != StateCompleted {
		t.Fatalf("states: crashy %s (%s), quiet %s (%s)",
			mc.State(), mc.Reason(), mq.State(), mq.Reason())
	}

	alone := runOne(t, Config{Workers: 1}, quiet)
	if div := checkpoint.Compare(mq.journal, alone.journal); div != nil {
		t.Fatalf("neighbor mission perturbed by the crashing one:\n%s", div)
	}
}
