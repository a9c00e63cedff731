package service

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"iobt/internal/verify"
)

// smallScenario is a fast nominal mission for pool/admission tests.
// terminal reports whether a mission in state s is done.
func terminal(s MissionState) bool {
	return s == StateCompleted || s == StateDegraded || s == StateFailed || s == StateQuarantined
}

func smallScenario(seed int64) verify.Scenario {
	return verify.Scenario{
		Seed:    seed,
		Assets:  90,
		Size:    600,
		Terrain: "open",
		Command: "intent",
		Rate:    10,
		Horizon: 20 * time.Second,
	}
}

func TestSubmitParsesAndDefaultsCheckpoint(t *testing.T) {
	svc := New(Config{Workers: 1, CheckpointEvery: 7 * time.Second})
	defer svc.Close()
	m, err := svc.Submit(smallScenario(2101).String())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if m.Scenario.Checkpoint != 7*time.Second {
		t.Errorf("default checkpoint cadence not applied: %v", m.Scenario.Checkpoint)
	}
	if svc.Mission(m.ID) != m {
		t.Error("mission not registered under its ID")
	}
	if _, err := svc.Submit("not a scenario"); err == nil {
		t.Error("garbage submission accepted")
	}
	// Scenarios built in Go skip the parser; admission holds them to the
	// same numeric limits and names the offending field.
	for field, mutate := range map[string]func(*verify.Scenario){
		"rate":    func(sc *verify.Scenario) { sc.Rate = math.NaN() },
		"size":    func(sc *verify.Scenario) { sc.Size = math.Inf(1) },
		"assets":  func(sc *verify.Scenario) { sc.Assets = 0 },
		"horizon": func(sc *verify.Scenario) { sc.Horizon = 0 },
	} {
		sc := smallScenario(2102)
		mutate(&sc)
		if _, err := svc.SubmitScenario(sc); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("bad %s: err = %v, want a rejection naming the field", field, err)
		}
	}
	if got := len(svc.Missions()); got != 1 {
		t.Errorf("%d missions admitted, want only the valid one", got)
	}
}

// TestAdmissionControlRejectsWhenFull fills the bounded queue with no
// workers draining it and requires ErrQueueFull — the 429 path.
func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	// One worker, blocked by a long mission; queue depth 2.
	svc := New(Config{Workers: 1, QueueDepth: 2, RetryAfterHint: 2500 * time.Millisecond})
	defer svc.Close()
	// The worker picks up the first mission almost immediately; fill the
	// queue behind it until rejection.
	full := 0
	for i := 0; i < 50; i++ {
		_, err := svc.SubmitScenario(smallScenario(int64(2200 + i)))
		if errors.Is(err, ErrQueueFull) {
			full++
			// The rejection is typed: it carries the configured retry hint
			// for clients (and the HTTP Retry-After header) to honor.
			var qf *QueueFullError
			if !errors.As(err, &qf) {
				t.Fatalf("queue-full rejection is not a *QueueFullError: %v", err)
			}
			if qf.RetryAfter != 2500*time.Millisecond {
				t.Errorf("RetryAfter hint = %v, want 2.5s", qf.RetryAfter)
			}
			break
		}
		if err != nil {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if full == 0 {
		t.Fatal("bounded queue never rejected: admission control is not bounded")
	}
	if svc.Telemetry().RejectedFull == 0 {
		t.Error("rejection not counted in telemetry")
	}
}

// waitForState polls until some mission of svc is in state st and
// returns it.
func waitForState(t *testing.T, svc *Service, st MissionState) *Mission {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		for _, m := range svc.Missions() {
			if m.State() == st {
				return m
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no mission reached state %s", st)
	return nil
}

// attemptStarted is when m's latest attempt began, in unix nanos.
func attemptStarted(m *Mission) int64 { return m.attemptStart.Load() }

// finishedAt is when m reached its terminal state, in unix nanos.
func finishedAt(m *Mission) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.finishedAt.UnixNano()
}

// TestDrainLosesNoAdmittedMission submits a batch, drains, and requires
// every admitted mission to be terminal and successful: drain means
// "finish what you accepted", not "abandon it". The drain is issued
// while a crashed mission waits out its backoff, holding no worker, and
// must wait for it like a running one.
func TestDrainLosesNoAdmittedMission(t *testing.T) {
	svc := New(Config{
		Workers:     4,
		BackoffBase: 500 * time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 0.5},
	})
	var admitted []*Mission
	for i := 0; i < 8; i++ {
		m, err := svc.SubmitScenario(smallScenario(int64(2300 + i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		admitted = append(admitted, m)
	}
	backingOff := waitForState(t, svc, StateRestarting)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := backingOff.Restarts(); got != 1 {
		t.Errorf("%s drained out of its backoff with %d restarts, want 1", backingOff.ID, got)
	}
	for _, m := range admitted {
		if st := m.State(); st != StateCompleted {
			t.Errorf("%s: state %s (%s), want completed", m.ID, st, m.Reason())
		}
		if v := m.View().Violations; len(v) != 0 {
			t.Errorf("%s: unexpected violations %v", m.ID, v)
		}
		if m.Summary().Checks == 0 {
			t.Errorf("%s: invariant audit is empty", m.ID)
		}
		if m.FirstEventLatency() <= 0 {
			t.Errorf("%s: first-event latency not measured", m.ID)
		}
	}
	if _, err := svc.SubmitScenario(smallScenario(9999)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// TestEventBudgetFailsMission pins the per-mission resource budget: a
// mission over its event budget is cancelled and terminally failed (a
// retry would hit the same budget).
func TestEventBudgetFailsMission(t *testing.T) {
	m := runOne(t, Config{Workers: 1, MaxEvents: 20}, smallScenario(2401))
	if m.State() != StateFailed {
		t.Fatalf("over-budget mission ended %s, want failed", m.State())
	}
	if got := m.Reason(); !strings.Contains(got, "event limit") {
		t.Errorf("reason %q does not name the event budget", got)
	}
}

// TestWallBudgetFailsMission wedges a mission and bounds it by wall
// clock instead of the stall deadline.
func TestWallBudgetFailsMission(t *testing.T) {
	m := runOne(t, Config{
		Workers:     1,
		MaxWall:     300 * time.Millisecond,
		StallAfter:  -1, // only the wall budget may trip
		MaxRestarts: -1,
		Chaos:       ChaosConfig{CrashProb: 1, AtFrac: 0.4, Stall: true},
	}, smallScenario(2501))
	if m.State() != StateFailed {
		t.Fatalf("wall-budget mission ended %s (%s), want failed", m.State(), m.Reason())
	}
	if got := m.Reason(); !strings.Contains(got, "wall-clock") {
		t.Errorf("reason %q does not name the wall budget", got)
	}
}

// TestCheckpointBytesBudget bounds the encoded checkpoint size so a
// state-bloated mission cannot fill the data directory.
func TestCheckpointBytesBudget(t *testing.T) {
	sc := recoveryScenario(2601)
	m := runOne(t, Config{Workers: 1, DataDir: t.TempDir(), MaxCheckpointBytes: 64}, sc)
	if m.State() != StateFailed {
		t.Fatalf("oversized-checkpoint mission ended %s, want failed", m.State())
	}
	if got := m.Reason(); !strings.Contains(got, "checkpoint size") {
		t.Errorf("reason %q does not name the checkpoint budget", got)
	}
}

// TestCloseLeaksNoGoroutines boots a service, runs missions (some
// crashing), closes it while one waits out a restart backoff, and
// requires the goroutine count back at its baseline: workers, watchdog,
// backoff timers and per-attempt machinery all unwind.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const backoff = time.Second
	svc := New(Config{
		Workers:     4,
		BackoffBase: backoff,
		Chaos:       ChaosConfig{CrashProb: 0.5},
	})
	for i := 0; i < 6; i++ {
		if _, err := svc.SubmitScenario(smallScenario(int64(2700 + i))); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// Close inside a backoff: in-flight attempts are cancelled, queued
	// missions fail fast, and the mission in backoff fails without
	// waiting it out.
	backingOff := waitForState(t, svc, StateRestarting)
	start := time.Now()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := time.Since(start); took >= backoff {
		t.Errorf("Close took %s, as long as the backoff it should cut short", took)
	}
	if st, why := backingOff.State(), backingOff.Reason(); st != StateFailed || why != "service stopped during restart backoff" {
		t.Errorf("%s closed during backoff ended %s (%q), want failed during restart backoff", backingOff.ID, st, why)
	}
	if got := backingOff.Attempts(); got != 1 {
		t.Errorf("%s ran %d attempts, want 1: its restart ran after Close", backingOff.ID, got)
	}
	for _, m := range svc.Missions() {
		if !terminal(m.State()) {
			t.Errorf("%s not terminal after Close: %s", m.ID, m.State())
		}
	}
	waitGoroutines(t, baseline)
}

// TestDrainLeaksNoGoroutines is the Drain side of
// TestCloseLeaksNoGoroutines: drained while a mission waits out a
// restart backoff, the service runs that restart and every queued
// mission to completion, and the goroutine count returns to baseline.
func TestDrainLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := New(Config{
		Workers:     2,
		BackoffBase: 100 * time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 1},
	})
	for i := 0; i < 4; i++ {
		if _, err := svc.SubmitScenario(smallScenario(int64(2750 + i))); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	backingOff := waitForState(t, svc, StateRestarting)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, m := range svc.Missions() {
		if st := m.State(); st != StateCompleted {
			t.Errorf("%s drained to %s (%q), want completed", m.ID, st, m.Reason())
		}
	}
	if got := backingOff.Attempts(); got != 2 {
		t.Errorf("%s drained during backoff ran %d attempts, want 2", backingOff.ID, got)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines waits up to 5s for the goroutine count to fall back to
// baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestDrainDeadlineCancelsInFlight pins the hard-drain path: when the
// drain context expires, in-flight missions are cancelled and marked
// failed rather than left running.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	svc := New(Config{
		Workers:    1,
		StallAfter: -1, // let the wedge live until the drain deadline
		Chaos:      ChaosConfig{CrashProb: 1, AtFrac: 0.3, Stall: true},
	})
	m, err := svc.SubmitScenario(smallScenario(2801))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err = svc.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error = %v, want deadline exceeded", err)
	}
	if st := m.State(); st != StateFailed {
		t.Errorf("hard-drained mission state %s, want failed", st)
	}
}

// TestTelemetryCounts sanity-checks the counter wiring end to end. Every
// mission crashes once: a mission in backoff counts as restarting, not
// running, so running never exceeds the pool, and it holds no goroutine.
func TestTelemetryCounts(t *testing.T) {
	const workers = 2
	baseline := runtime.NumGoroutine()
	svc := New(Config{
		Workers:     workers,
		BackoffBase: 300 * time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 1},
	})
	for i := 0; i < 3; i++ {
		if _, err := svc.SubmitScenario(smallScenario(int64(2900 + i))); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		tel := svc.Telemetry()
		if tel.Running > workers {
			t.Fatalf("telemetry running=%d exceeds %d workers", tel.Running, workers)
		}
		if tel.Restarting > 0 {
			if n := runtime.NumGoroutine() - baseline; n > workers+1 {
				t.Errorf("%d goroutines with %d missions in backoff, want the %d workers and the watchdog", n, tel.Restarting, workers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no mission was ever counted as restarting")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tel := svc.Telemetry()
	if tel.Admitted != 3 || tel.Completed != 3 || tel.Restarts != 3 {
		t.Errorf("telemetry admitted=%d completed=%d restarts=%d, want 3/3/3", tel.Admitted, tel.Completed, tel.Restarts)
	}
	if tel.Queued != 0 || tel.Running != 0 || tel.Restarting != 0 {
		t.Errorf("drained service still reports queued=%d running=%d restarting=%d", tel.Queued, tel.Running, tel.Restarting)
	}
}

// TestBackoffReleasesWorker pins that a restart backoff holds no worker:
// on a one-worker pool, a mission submitted after a crashing one runs to
// completion while the crashed one waits out its backoff.
func TestBackoffReleasesWorker(t *testing.T) {
	svc := New(Config{
		Workers:     1,
		BackoffBase: 300 * time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 0.5}, // crashes seed 2300, spares 2301
	})
	crashy, err := svc.SubmitScenario(smallScenario(2300))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	later, err := svc.SubmitScenario(smallScenario(2301))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := crashy.View(); v.State != "completed" || v.Crashes != 1 || v.Attempts != 2 {
		t.Fatalf("crashing mission: %+v, want completed after 1 crash and 2 attempts", v)
	}
	if v := later.View(); v.State != "completed" || v.Crashes != 0 {
		t.Fatalf("later mission: %+v, want completed without a crash", v)
	}
	if finishedAt(later) >= attemptStarted(crashy) {
		t.Error("the later mission did not complete before the crashed one restarted: the backoff held the worker")
	}
}

// TestReadyRestartRunsBeforeQueued pins dispatch priority: a restart
// whose backoff has elapsed runs before queued admissions, so it waits
// for at most the one attempt in flight when its backoff ends.
func TestReadyRestartRunsBeforeQueued(t *testing.T) {
	svc := New(Config{
		Workers:     1,
		BackoffBase: time.Millisecond,
		Chaos:       ChaosConfig{CrashProb: 0.5}, // crashes seed 2300 only
	})
	crashy, err := svc.SubmitScenario(smallScenario(2300))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Each queued mission runs far longer than the 1ms backoff.
	var queued []*Mission
	for _, seed := range []int64{2301, 2302, 2304} {
		sc := smallScenario(seed)
		sc.Horizon = 30 * time.Minute
		m, err := svc.SubmitScenario(sc)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		queued = append(queued, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, m := range append([]*Mission{crashy}, queued...) {
		if m.State() != StateCompleted {
			t.Fatalf("%s ended %s (%s), want completed", m.ID, m.State(), m.Reason())
		}
	}
	if crashy.Restarts() != 1 {
		t.Fatalf("crashing mission restarted %d times, want 1", crashy.Restarts())
	}
	// One worker: crash, the first queued mission runs during the
	// backoff, then the restart, then the rest of the queue.
	restart := attemptStarted(crashy)
	if finishedAt(queued[0]) >= restart {
		t.Error("the restart ran before the queued mission taken during its backoff")
	}
	for _, m := range queued[1:] {
		if attemptStarted(m) <= restart {
			t.Errorf("%s started before the ready restart", m.ID)
		}
	}
}

// TestDataDirCreatedOnDemand pins the fresh-deployment path: pointing
// DataDir at a directory that does not exist yet must not fail every
// mission at store-open — the service creates it.
func TestDataDirCreatedOnDemand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missions", "ckpt")
	sc := smallScenario(3001)
	sc.Checkpoint = 5 * time.Second
	m := runOne(t, Config{Workers: 1, DataDir: dir}, sc)
	if st := m.State(); st != StateCompleted {
		t.Fatalf("mission in fresh data dir ended %s (%s), want completed", st, m.Reason())
	}
	if _, err := os.Stat(filepath.Join(dir, m.ID+".ckpt")); err != nil {
		t.Errorf("journal file missing from created data dir: %v", err)
	}
}
