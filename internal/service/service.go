// Package service is the iobtd mission service: a supervised runner for
// concurrent simulated missions. Each submitted scenario (the verifier's
// .scn reproducer format) runs in a worker from a bounded pool behind
// admission control; a per-mission supervisor recovers panics without
// disturbing neighbors, a watchdog detects stalled missions on the wall
// clock, and crashed or stalled missions restart, replaying to their
// latest persisted checkpoint — with exponential backoff and a
// quarantine bound so a crash loop cannot starve the pool. Recovery is
// verified, not assumed: each replayed cut's digest is compared with its
// persisted record before the mission continues (see runner.go).
//
// The paper's IoBT must "survive in the presence of failures, attacks
// and compromises"; this package applies that demand to the mission
// infrastructure itself, the layer the simulations run on.
package service

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

// Admission errors. The HTTP layer maps these to 429 and 503.
var (
	// ErrQueueFull rejects a submission when the run queue is at depth.
	ErrQueueFull = errors.New("service: run queue full")
	// ErrDraining rejects a submission during graceful shutdown.
	ErrDraining = errors.New("service: draining, not accepting missions")
)

// QueueFullError is the concrete queue-full rejection: it unwraps to
// ErrQueueFull (so errors.Is keeps working) and carries the retry hint
// that the HTTP layer advertises as the Retry-After header and that
// well-behaved clients honor before resubmitting.
type QueueFullError struct {
	// RetryAfter is how long the client should wait before retrying.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", ErrQueueFull, e.RetryAfter)
}

func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// Config tunes the service. Zero values take the stated defaults.
type Config struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// RetryAfterHint is the backpressure interval advertised with
	// queue-full rejections: QueueFullError carries it and the HTTP layer
	// renders it as Retry-After (default 1s).
	RetryAfterHint time.Duration
	// MaxRestarts bounds supervised restarts per mission before
	// quarantine (default 3). Negative: no restarts.
	MaxRestarts int
	// BackoffBase is the first restart backoff (default 25ms); each
	// further restart doubles it up to backoffMax, and jitter is drawn
	// deterministically from the mission seed. A mission waits out its
	// backoff on a timer, holding no worker, and is then dispatched
	// ahead of the admission queue.
	BackoffBase time.Duration
	// StallAfter is the wall-clock progress deadline: an attempt whose
	// engine makes no progress for this long is stalled and restarted
	// (default 2s; negative disables).
	StallAfter time.Duration
	// MaxWall is the per-attempt wall-clock budget (0: unlimited).
	MaxWall time.Duration
	// MaxEvents is the per-attempt executed-event budget (0: unlimited).
	MaxEvents uint64
	// MaxCheckpointBytes bounds one checkpoint cut's encoded size
	// (0: unlimited).
	MaxCheckpointBytes int
	// CheckpointEvery is the default virtual checkpoint cadence applied
	// to scenarios that set none (default 10s; negative leaves scenarios
	// untouched).
	CheckpointEvery time.Duration
	// DataDir, when set, holds per-mission checkpoint journal files and
	// reproducer snapshots. Empty: checkpoints are kept in memory only
	// (recovery still works within the process).
	DataDir string
	// Chaos injects worker failures for tests and soak runs.
	Chaos ChaosConfig
}

const (
	// backoffMax caps the exponential restart backoff.
	backoffMax = time.Second
	// watchdogEvery is the watchdog's wall-clock scan cadence.
	watchdogEvery = 50 * time.Millisecond
)

// ChaosConfig is the built-in failure injector: it models a worker
// crashing (or wedging) mid-mission, which is exactly what the
// supervisor exists to absorb.
type ChaosConfig struct {
	// CrashProb is the per-mission probability of injected failure,
	// drawn deterministically from the mission seed.
	CrashProb float64
	// CrashAttempts is how many leading attempts fail (default 1, so a
	// single restart recovers; set above MaxRestarts to force
	// quarantine).
	CrashAttempts int
	// Stall wedges the worker instead of panicking, exercising the
	// watchdog path.
	Stall bool
	// AtFrac places the failure at this fraction of the horizon
	// (0: drawn uniformly from [0.3, 0.7)).
	AtFrac float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = time.Second
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	if c.MaxRestarts < 0 {
		c.MaxRestarts = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.StallAfter == 0 {
		c.StallAfter = 2 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10 * time.Second
	}
	if c.Chaos.CrashAttempts <= 0 {
		c.Chaos.CrashAttempts = 1
	}
	return c
}

// telemetry counts what no mission record holds: submissions, including
// those admission refused, and watchdog trips.
type telemetry struct {
	submitted        atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	watchdogTrips    atomic.Int64
}

// Telemetry is the JSON projection of the service counters.
type Telemetry struct {
	Submitted        int64 `json:"submitted"`
	Admitted         int64 `json:"admitted"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	Queued           int   `json:"queued"`
	Running          int   `json:"running"`
	Restarting       int   `json:"restarting"`
	Completed        int64 `json:"completed"`
	Degraded         int64 `json:"degraded"`
	Failed           int64 `json:"failed"`
	Quarantined      int64 `json:"quarantined"`
	Crashes          int64 `json:"crashes"`
	Stalls           int64 `json:"stalls"`
	Restarts         int64 `json:"restarts"`
	Recoveries       int64 `json:"recoveries"`
	WatchdogTrips    int64 `json:"watchdog_trips"`
	Checkpoints      int64 `json:"checkpoints_persisted"`
	CheckpointBytes  int64 `json:"checkpoint_bytes"`
}

// Service is a running mission service. Create with New, stop with
// Drain (graceful) or Close (immediate).
type Service struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	wdDone chan struct{}

	mu       sync.Mutex
	draining bool
	stopped  bool
	nextID   int
	idErr    error // DataDir could not be listed: every mission fails at open
	byID     map[string]*Mission
	order    []*Mission

	// Dispatch, all under mu. A worker takes from ready before queue, so
	// a restart waits for at most one in-flight attempt; wake signals
	// idle workers.
	wake  *sync.Cond
	queue []*Mission // admitted, never run; at most QueueDepth
	ready []*Mission // restarts whose backoff has elapsed
	live  int        // admitted and not yet terminal

	tel telemetry
}

// New starts a service: the worker pool and the watchdog begin
// immediately; mission IDs continue above the highest in DataDir.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Service{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		wdDone: make(chan struct{}),
		byID:   make(map[string]*Mission),
	}
	s.nextID, s.idErr = lastID(cfg.DataDir)
	s.wake = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.watchdog()
	return s
}

// Submit parses a .scn scenario and admits it. Parse errors, ErrQueueFull,
// and ErrDraining are the caller's to map (400/429/503).
func (s *Service) Submit(src string) (*Mission, error) {
	sc, err := verify.ParseScenario(src)
	if err != nil {
		return nil, err
	}
	return s.SubmitScenario(sc)
}

// SubmitScenario admits a parsed scenario into the bounded run queue.
// Restarts never count against QueueDepth.
func (s *Service) SubmitScenario(sc verify.Scenario) (*Mission, error) {
	s.tel.submitted.Add(1)
	switch {
	case sc.Horizon <= 0:
		return nil, fmt.Errorf("service: scenario horizon must be positive, got %s", sc.Horizon)
	case sc.Assets <= 0:
		return nil, fmt.Errorf("service: scenario assets must be positive, got %d", sc.Assets)
	case sc.Size <= 0:
		return nil, fmt.Errorf("service: scenario size must be positive, got %g", sc.Size)
	}
	if sc.Checkpoint == 0 && s.cfg.CheckpointEvery > 0 {
		sc.Checkpoint = s.cfg.CheckpointEvery
	}
	// The reproducer must parse back: that holds a scenario built in Go
	// to the numeric limits ParseScenario sets on scenario files.
	src := sc.String()
	if _, err := verify.ParseScenario(src); err != nil {
		return nil, fmt.Errorf("service: scenario does not replay: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.tel.rejectedDraining.Add(1)
		return nil, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.tel.rejectedFull.Add(1)
		return nil, &QueueFullError{RetryAfter: s.cfg.RetryAfterHint}
	}
	s.nextID++
	m := &Mission{
		ID:          fmt.Sprintf("m-%06d", s.nextID),
		Scenario:    sc,
		Source:      src,
		state:       StateQueued,
		submittedAt: time.Now(),
	}
	s.queue = append(s.queue, m)
	s.live++
	s.wake.Signal()
	s.byID[m.ID] = m
	s.order = append(s.order, m)
	return m, nil
}

// Mission returns the mission with the given ID, or nil.
func (s *Service) Mission(id string) *Mission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// Missions returns every admitted mission in submission order.
func (s *Service) Missions() []*Mission {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Mission(nil), s.order...)
}

// Telemetry snapshots the service counters: a fold over the mission
// records, which hold every per-mission count, plus the four counts no
// mission holds.
func (s *Service) Telemetry() Telemetry {
	missions := s.Missions()
	t := Telemetry{
		Submitted:        s.tel.submitted.Load(),
		Admitted:         int64(len(missions)),
		RejectedFull:     s.tel.rejectedFull.Load(),
		RejectedDraining: s.tel.rejectedDraining.Load(),
		WatchdogTrips:    s.tel.watchdogTrips.Load(),
	}
	for _, m := range missions {
		m.mu.Lock()
		switch m.state {
		case StateQueued:
			t.Queued++
		case StateRunning:
			t.Running++
		case StateRestarting:
			t.Restarting++
		case StateCompleted:
			t.Completed++
		case StateDegraded:
			t.Degraded++
		case StateFailed:
			t.Failed++
		case StateQuarantined:
			t.Quarantined++
		default:
		}
		t.Crashes += int64(m.crashes)
		t.Stalls += int64(m.stalls)
		t.Restarts += int64(m.restarts)
		t.Recoveries += int64(m.recoveries)
		t.Checkpoints += int64(m.checkpoints)
		t.CheckpointBytes += int64(m.checkpointBytes)
		m.mu.Unlock()
	}
	return t
}

// Draining reports whether the service has stopped admitting missions.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, waits for every admitted mission to reach a
// terminal state (a mission in restart backoff included), then stops the
// watchdog. If ctx expires first, in-flight attempts are cancelled —
// their checkpoints are durable — backoffs are cut short, and ctx's
// error is returned.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: already draining")
	}
	s.draining = true
	s.wake.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		s.stop(fmt.Errorf("%w: drain deadline expired", errServiceStopped))
		<-done
		derr = ctx.Err()
	}
	s.shutdown()
	return derr
}

// Close stops the service immediately: admission closes, in-flight
// attempts are cancelled, queued missions and missions in restart
// backoff fail fast. Safe after Drain.
func (s *Service) Close() error {
	s.mu.Lock()
	already := s.stopped
	s.draining = true
	s.wake.Broadcast()
	s.mu.Unlock()
	if already {
		return nil
	}
	s.stop(errServiceStopped)
	s.wg.Wait()
	s.shutdown()
	return nil
}

// shutdown stops the watchdog once the workers are done.
func (s *Service) shutdown() {
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if already {
		return
	}
	s.cancel(errServiceStopped)
	<-s.wdDone
}

// stop cancels every in-flight attempt with cause and cuts every
// restart backoff short, so a mission waiting one fails at once.
func (s *Service) stop(cause error) {
	s.cancel(cause)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.order {
		// A timer that already fired has its callback queued behind mu.
		if m.timer != nil && m.timer.Stop() {
			s.makeReady(m)
		}
	}
}

// worker runs one attempt at a time, from whichever mission take hands
// it, until the service has drained; one goroutine per pool slot.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		m := s.take()
		if m == nil {
			return
		}
		s.mu.Unlock()
		restart, backoff := s.step(m)
		s.mu.Lock()
		if restart {
			s.arm(m, backoff)
			continue
		}
		s.live--
		if s.live == 0 && s.draining {
			s.wake.Broadcast()
		}
	}
}

// take pops the next mission to run, a restart whose backoff has
// elapsed before any new admission. It waits while there is nothing to
// run, and returns nil once the service is draining with no live
// mission left. Called with mu held.
func (s *Service) take() *Mission {
	for {
		switch {
		case len(s.ready) > 0:
			m := s.ready[0]
			s.ready[0] = nil
			s.ready = s.ready[1:]
			return m
		case len(s.queue) > 0:
			m := s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			return m
		case s.draining && s.live == 0:
			return nil
		}
		s.wake.Wait()
	}
}

// arm starts m's restart backoff on a timer whose callback makes m
// ready; a stopped service skips the wait. Called with mu held.
func (s *Service) arm(m *Mission, backoff time.Duration) {
	if s.ctx.Err() != nil {
		s.makeReady(m)
		return
	}
	m.timer = time.AfterFunc(backoff, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.makeReady(m)
	})
}

// makeReady moves m from its backoff to the ready list. Called with mu
// held.
func (s *Service) makeReady(m *Mission) {
	m.timer = nil
	s.ready = append(s.ready, m)
	s.wake.Signal()
}

// watchdog scans running missions on the wall clock: an attempt past its
// wall budget, or one whose engine has made no progress within the stall
// deadline, is cancelled with the matching cause. The supervisor decides
// what the cancellation means (restart vs terminal).
func (s *Service) watchdog() {
	defer close(s.wdDone)
	t := time.NewTicker(watchdogEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		for _, m := range s.Missions() {
			if !m.running.Load() {
				continue
			}
			start := time.Unix(0, m.attemptStart.Load())
			if s.cfg.MaxWall > 0 && now.Sub(start) > s.cfg.MaxWall {
				s.tel.watchdogTrips.Add(1)
				m.cancelWith(fmt.Errorf("%w: attempt ran %s (budget %s)",
					errWallBudget, now.Sub(start).Round(time.Millisecond), s.cfg.MaxWall))
				continue
			}
			last := time.Unix(0, m.lastProgress.Load())
			if s.cfg.StallAfter > 0 && now.Sub(last) > s.cfg.StallAfter {
				s.tel.watchdogTrips.Add(1)
				m.cancelWith(fmt.Errorf("%w: no progress for %s (deadline %s)",
					errStalled, now.Sub(last).Round(time.Millisecond), s.cfg.StallAfter))
			}
		}
	}
}

// step runs m's next attempt. It reports whether the mission restarts,
// and after what backoff; otherwise m is terminal.
func (s *Service) step(m *Mission) (restart bool, backoff time.Duration) {
	if s.ctx.Err() != nil {
		reason := "service stopped before the mission ran"
		if m.Attempts() > 0 {
			reason = "service stopped during restart backoff"
		}
		s.finish(m, StateFailed, reason)
		return false, 0
	}
	if m.Attempts() == 0 {
		if err := s.open(m); err != nil {
			s.finish(m, StateFailed, "checkpoint store: "+err.Error())
			return false, 0
		}
	}

	anchor := m.anchor // persist moves m.anchor as the attempt cuts
	j := checkpoint.NewJournal(m.Scenario.Seed, m.Scenario.Plan.String())
	m.beginAttempt()
	out, err := s.attempt(m, j, anchor)
	m.endAttempt()

	if err == nil {
		s.conclude(m, out, j, anchor)
		return false, 0
	}
	if !restartable(err) {
		s.finish(m, StateFailed, err.Error())
		return false, 0
	}
	m.noteFailure(errors.Is(err, errPanicked))
	if m.Restarts() >= s.cfg.MaxRestarts {
		s.finish(m, StateQuarantined,
			fmt.Sprintf("restart budget (%d) exhausted; last failure: %v", s.cfg.MaxRestarts, err))
		return false, 0
	}
	m.mu.Lock()
	m.restarts++
	n := m.restarts
	m.state = StateRestarting
	m.reason = err.Error()
	m.mu.Unlock()
	return true, s.backoff(n, m.backoffRNG)
}

// open sets up m's supervision state before its first attempt: the
// backoff stream and, with a data directory, the checkpoint store and
// the digests of the records it already holds.
func (s *Service) open(m *Mission) error {
	m.backoffRNG = sim.NewRNG(m.Scenario.Seed).Derive("service.backoff")
	m.digests = make(map[int]uint64)
	if s.cfg.DataDir == "" {
		return nil
	}
	if s.idErr != nil {
		return fmt.Errorf("mission IDs not resumed: %w", s.idErr)
	}
	// A fresh deployment's data directory may not exist yet; an operator
	// pointing -data at a new path should not watch every mission fail
	// at store-open.
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	st, recs, err := checkpoint.OpenStore(filepath.Join(s.cfg.DataDir, m.ID+".ckpt"))
	if err != nil {
		return err
	}
	m.store = st
	for _, r := range recs {
		m.digests[r.Seq], m.anchor = r.Checkpoint.Digest(), r.Seq
	}
	return nil
}

// lastID returns the highest mission number among dir's file names
// (m-NNNNNN, whatever the suffix), so a restarted service never hands a
// new mission an old one's store. A directory that does not exist, the
// empty name included, holds none.
func lastID(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
		return 0, err
	}
	top := 0
	for _, e := range ents {
		var n int
		if _, serr := fmt.Sscanf(e.Name(), "m-%d", &n); serr == nil {
			top = max(top, n)
		}
	}
	return top, nil
}

// backoff is BackoffBase·2^(n-1) capped at backoffMax, plus up to 25%
// deterministic jitter drawn from rng.
func (s *Service) backoff(n int, rng *sim.RNG) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < n && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	if q := int(d / 4); q > 0 {
		d += time.Duration(rng.Intn(q + 1))
	}
	return d
}

// conclude records a finished attempt's outcome, journal and anchor seq
// (0: none) and the terminal state: completed when clean, degraded
// (with a reproducer snapshot) when an invariant was violated.
func (s *Service) conclude(m *Mission, out *verify.Outcome, j *checkpoint.Journal, anchor int) {
	m.mu.Lock()
	m.fingerprint = out.Fingerprint
	m.summary = out.Summary
	m.journal = j
	m.recoveredFrom = anchor
	m.violations = m.violations[:0]
	for _, v := range out.Violations {
		m.violations = append(m.violations, v.String())
	}
	m.events.Store(out.Events)
	m.mu.Unlock()

	if len(out.Violations) == 0 {
		s.finish(m, StateCompleted, "")
		return
	}
	reason := fmt.Sprintf("%d invariant violations (first: %s)", len(out.Violations), out.Violations[0])
	if s.cfg.DataDir != "" {
		path := filepath.Join(s.cfg.DataDir, m.ID+".reproducer.scn")
		if err := os.WriteFile(path, []byte(m.Source), 0o644); err != nil {
			reason += "; reproducer write failed: " + err.Error()
		} else {
			reason += "; reproducer: " + path
		}
	}
	s.finish(m, StateDegraded, reason)
}

// finish closes a mission's checkpoint store and moves it to a terminal
// state.
func (s *Service) finish(m *Mission, st MissionState, reason string) {
	if m.store != nil {
		// Every record was synced when appended; Close loses nothing.
		_ = m.store.Close()
		m.store = nil
	}
	m.mu.Lock()
	m.state = st
	m.reason = reason
	m.finishedAt = time.Now()
	m.mu.Unlock()
}
