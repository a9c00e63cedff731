package service

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
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
	_, m := runService(t, cfg, sc)
	return m
}

// runService is runOne that also returns the drained service, for
// tests that read its telemetry.
func runService(t *testing.T, cfg Config, sc verify.Scenario) (*Service, *Mission) {
	t.Helper()
	svc := New(cfg)
	return svc, drainAll(t, svc, sc)[0]
}

// drainAll submits each scenario to svc in turn, drains it and requires
// every mission terminal.
func drainAll(t *testing.T, svc *Service, scs ...verify.Scenario) []*Mission {
	t.Helper()
	var ms []*Mission
	for _, sc := range scs {
		m, err := svc.SubmitScenario(sc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ms = append(ms, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, m := range ms {
		if st := m.State(); !terminal(st) {
			t.Fatalf("mission %s not terminal after drain: %s", m.ID, st)
		}
	}
	return ms
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
			svc, crashed := runService(t, Config{
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
			if got := svc.Telemetry().Recoveries; got != 1 {
				t.Errorf("telemetry recoveries = %d, want 1", got)
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

// TestTelemetryCheckpointAndStallCounters pins the telemetry counters
// no other test reads against what they count: the checkpoints a
// crash-recovered mission persisted are exactly the records in its store,
// byte for byte, and a stalled mission is a watchdog trip.
func TestTelemetryCheckpointAndStallCounters(t *testing.T) {
	sc := recoveryScenario(1901)
	dir := t.TempDir()
	svc, m := runService(t, Config{
		Workers: 1,
		DataDir: dir,
		Chaos:   ChaosConfig{CrashProb: 1, AtFrac: 0.6},
	}, sc)
	if m.State() != StateCompleted || m.Restarts() == 0 {
		t.Fatalf("crashed mission ended %s after %d restarts (%s), want completed after a restart",
			m.State(), m.Restarts(), m.Reason())
	}
	recs, err := checkpoint.RecoverStore(filepath.Join(dir, m.ID+".ckpt"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("store holds %d records (err %v), want some", len(recs), err)
	}
	bytes := 0
	for _, r := range recs {
		bytes += r.Checkpoint.Bytes()
	}
	tel := svc.Telemetry()
	if tel.Checkpoints != int64(len(recs)) || tel.CheckpointBytes != int64(bytes) {
		t.Errorf("telemetry checkpoints=%d bytes=%d, want the store's %d records of %d bytes",
			tel.Checkpoints, tel.CheckpointBytes, len(recs), bytes)
	}

	svc, m = runService(t, Config{
		Workers:    1,
		StallAfter: 200 * time.Millisecond,
		Chaos:      ChaosConfig{CrashProb: 1, AtFrac: 0.5, Stall: true},
	}, sc)
	if m.State() != StateCompleted {
		t.Fatalf("stalled mission ended %s (%s), want completed", m.State(), m.Reason())
	}
	if tel := svc.Telemetry(); tel.Stalls < 1 || tel.WatchdogTrips < tel.Stalls {
		t.Errorf("telemetry stalls=%d watchdog_trips=%d, want at least one stall, each a trip",
			tel.Stalls, tel.WatchdogTrips)
	}
}

// TestRunnerVerifyReplay pins the service's attempt to the repo's
// replay contract: two chaos-free service runs of the same scenario must
// journal byte-identically under checkpoint.VerifyEquivalence.
func TestRunnerVerifyReplay(t *testing.T) {
	sc := recoveryScenario(1401)
	run := func(j *checkpoint.Journal) {
		m := runOne(t, Config{Workers: 1}, sc)
		if m.State() != StateCompleted {
			t.Fatalf("mission ended %s (%s), want completed", m.State(), m.Reason())
		}
		if m.View().Events == 0 {
			t.Fatal("attempt executed no events")
		}
		*j = *m.journal
	}
	if div := checkpoint.VerifyEquivalence(sc.Seed, sc.Plan.String(), run, run); div != nil {
		t.Fatalf("service attempt is not replay-stable:\n%s", div)
	}
}

// TestRecoveryAcrossServiceRestart runs two service instances in turn
// on one data directory, as a restarted iobtd -data does. The first
// crash-loops a mission to quarantine, leaving its durable cuts behind.
// The second must hand its missions fresh IDs above the directory's, so
// neither a different scenario nor the same one opens the old store:
// both complete as clean runs, recovered from nothing, with verify.Run's
// fingerprints, and the old store keeps every record it had.
func TestRecoveryAcrossServiceRestart(t *testing.T) {
	dir := t.TempDir()
	first := drainAll(t, New(Config{
		Workers:     1,
		DataDir:     dir,
		MaxRestarts: 1,
		Chaos:       ChaosConfig{CrashProb: 1, AtFrac: 0.6, CrashAttempts: 99},
	}), recoveryScenario(1501))[0]
	if first.State() != StateQuarantined {
		t.Fatalf("always-crashing mission ended %s, want quarantined", first.State())
	}
	store := filepath.Join(dir, first.ID+".ckpt")
	recs, err := checkpoint.RecoverStore(store)
	if err != nil || len(recs) == 0 {
		t.Fatalf("no durable checkpoints survived the crash loop: %d records, err %v", len(recs), err)
	}

	scs := []verify.Scenario{recoveryScenario(3), recoveryScenario(1501)}
	for i, m := range drainAll(t, New(Config{Workers: 1, DataDir: dir}), scs...) {
		if m.ID <= first.ID {
			t.Errorf("restarted service reused ID %s (first instance's mission was %s)", m.ID, first.ID)
		}
		if m.State() != StateCompleted {
			t.Fatalf("seed %d ended %s (%s), want completed", scs[i].Seed, m.State(), m.Reason())
		}
		if v := m.View(); v.RecoveredFrom != 0 {
			t.Errorf("seed %d recovered from seq %d of another mission's store", scs[i].Seed, v.RecoveredFrom)
		}
		if got, want := m.Fingerprint(), verify.Run(scs[i]).Fingerprint; got != want {
			t.Errorf("seed %d fingerprint %016x != verify.Run's %016x", scs[i].Seed, got, want)
		}
	}
	after, err := checkpoint.RecoverStore(store)
	if err != nil || len(after) != len(recs) {
		t.Fatalf("first instance's store holds %d records (err %v), want its %d", len(after), err, len(recs))
	}
}

// TestRecoveryRefusesTamperedCheckpoint pins the anchor guard: a
// recovering attempt whose replay does not reproduce the persisted
// anchor must fail the mission with a divergence naming the anchor's
// seq, and count no recovery. The records come from a crash loop's
// store and are rewritten, altered, into a fresh data directory after
// the service started and before the mission is submitted, so the
// anchor is read from disk.
func TestRecoveryRefusesTamperedCheckpoint(t *testing.T) {
	sc := recoveryScenario(1801)
	src := t.TempDir()
	m1 := runOne(t, Config{
		Workers:     1,
		DataDir:     src,
		MaxRestarts: 1,
		Chaos:       ChaosConfig{CrashProb: 1, AtFrac: 0.6, CrashAttempts: 99},
	}, sc)
	file := m1.ID + ".ckpt"

	cases := []struct {
		name   string
		tamper func(*checkpoint.Record)
		// sealed: no cut past the anchor may be persisted.
		sealed bool
	}{
		{"flipped byte", func(rec *checkpoint.Record) {
			for _, s := range rec.Checkpoint.Sections {
				if len(s.Data) > 0 {
					s.Data[len(s.Data)/2] ^= 0x01
					return
				}
			}
			t.Fatal("anchor record has no section data to flip")
		}, true},
		{"never retaken", func(rec *checkpoint.Record) {
			// A cut from past the horizon: seq, instant and event count
			// all lie beyond anything this mission reaches.
			rec.Seq, rec.Checkpoint.Seq = 1000, 1000
			rec.At = 2 * sc.Horizon
			rec.Processed *= 4
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := checkpoint.RecoverStore(filepath.Join(src, file))
			if err != nil || len(recs) < 2 {
				t.Fatalf("crash loop left %d records (err %v), want at least 2", len(recs), err)
			}
			anchor := &recs[len(recs)-1]
			tc.tamper(anchor)
			seq := anchor.Seq

			dst := t.TempDir()
			svc := New(Config{Workers: 1, DataDir: dst})
			st, _, err := checkpoint.OpenStore(filepath.Join(dst, file))
			if err != nil {
				t.Fatalf("open store: %v", err)
			}
			for _, rec := range recs {
				if err := st.Append(rec); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close store: %v", err)
			}

			m := drainAll(t, svc, sc)[0]
			if m.ID+".ckpt" != file {
				t.Fatalf("mission ID %s does not match the store %s", m.ID, file)
			}
			if m.State() != StateFailed {
				t.Fatalf("recovery from an altered anchor ended %s (%s), want failed", m.State(), m.Reason())
			}
			reason := m.Reason()
			if !strings.Contains(reason, errDivergence.Error()) ||
				!regexp.MustCompile(fmt.Sprintf(`\bseq %d\b`, seq)).MatchString(reason) {
				t.Fatalf("failure reason %q is not a divergence naming seq %d", reason, seq)
			}
			if m.View().RecoveredFrom != 0 {
				t.Error("a refused anchor was reported as recovered from")
			}
			if got := svc.Telemetry().Recoveries; got != 0 {
				t.Errorf("telemetry counts %d recoveries for a refused anchor, want 0", got)
			}
			if !tc.sealed {
				return
			}
			after, err := checkpoint.RecoverStore(filepath.Join(dst, file))
			if err != nil {
				t.Fatalf("recover store: %v", err)
			}
			if len(after) != len(recs) {
				t.Fatalf("store holds %d records after the refused recovery, want the %d it had", len(after), len(recs))
			}
		})
	}
}

// TestRecoveryWithoutCoordinatorDiverges: a mission with checkpointing
// off has no coordinator and retakes no cut, so a durable anchor in its
// store is never reached and the mission fails with a divergence
// naming that anchor's seq, counting no recovery.
func TestRecoveryWithoutCoordinatorDiverges(t *testing.T) {
	sc := recoveryScenario(1801)
	sc.Checkpoint = 0
	dir := t.TempDir()
	svc := New(Config{Workers: 1, DataDir: dir, CheckpointEvery: -1})
	st, _, err := checkpoint.OpenStore(filepath.Join(dir, "m-000001.ckpt"))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	ck := &checkpoint.Checkpoint{Seq: 2, At: 10 * time.Second,
		Sections: []checkpoint.Section{{Name: "runtime", Data: []byte{1}}}}
	if err := st.Append(checkpoint.Record{Seq: ck.Seq, At: ck.At, Processed: 1, Checkpoint: ck}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	m := drainAll(t, svc, sc)[0]
	if m.State() != StateFailed {
		t.Fatalf("mission with no coordinator ended %s (%s), want failed", m.State(), m.Reason())
	}
	if reason := m.Reason(); !strings.Contains(reason, errDivergence.Error()) ||
		!strings.Contains(reason, "anchor seq 2 ") {
		t.Fatalf("failure reason %q is not a divergence naming anchor seq 2", reason)
	}
	if got := svc.Telemetry().Recoveries; got != 0 {
		t.Errorf("telemetry counts %d recoveries, want 0", got)
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
