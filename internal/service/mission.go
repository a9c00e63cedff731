package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

// MissionState is the lifecycle state of one submitted mission.
type MissionState int

// Mission lifecycle. Queued → Running → (Restarting → Running)* → one of
// the four terminal states.
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued MissionState = iota + 1
	// StateRunning: a worker is executing an attempt.
	StateRunning
	// StateRestarting: the last attempt crashed or stalled; the mission
	// is waiting out its backoff, holding no worker, before restarting
	// from the latest checkpoint.
	StateRestarting
	// StateCompleted: ran to its horizon with every invariant intact.
	StateCompleted
	// StateDegraded: ran to its horizon but violated invariants; a
	// reproducer snapshot was written when a data directory is set.
	StateDegraded
	// StateFailed: terminally failed (budget exhausted, synthesis
	// infeasible, replay divergence, or service shutdown).
	StateFailed
	// StateQuarantined: crashed or stalled past the restart budget; the
	// supervisor gave up to protect its neighbors.
	StateQuarantined
)

// String names the state.
func (s MissionState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateRestarting:
		return "restarting"
	case StateCompleted:
		return "completed"
	case StateDegraded:
		return "degraded"
	case StateFailed:
		return "failed"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("MissionState(%d)", int(s))
	}
}

// Mission is one admitted scenario and its supervision record. All
// exported accessors are safe for concurrent use.
type Mission struct {
	// ID is the service-assigned mission identifier (stable, ordered).
	ID string
	// Scenario is the parsed scenario, with the service's default
	// checkpoint cadence applied when the submission had none.
	Scenario verify.Scenario
	// Source is the canonical .scn serialization of Scenario.
	Source string

	mu            sync.Mutex
	state         MissionState
	reason        string
	attempts      int
	restarts      int
	crashes       int
	stalls        int
	checkpoints   int
	recoveredFrom int
	submittedAt   time.Time
	firstEventAt  time.Time
	finishedAt    time.Time
	pendingCrash  time.Time
	recoveryMs    []float64
	fingerprint   uint64
	journal       *checkpoint.Journal
	summary       verify.Summary
	violations    []string
	cancel        context.CancelCauseFunc

	// Supervision state, carried between attempts so that any worker can
	// run the next one. Only the worker running the mission touches
	// these; the Service's mu hands them from one worker to the next.
	store      *checkpoint.Store
	persisted  []checkpoint.Record
	backoffRNG *sim.RNG
	timer      *time.Timer // armed restart backoff; guarded by Service.mu

	// Watchdog-visible progress, updated from inside the running engine.
	running      atomic.Bool
	events       atomic.Uint64
	virtualNS    atomic.Int64
	attemptStart atomic.Int64 // unix nanos
	lastProgress atomic.Int64 // unix nanos
}

// State returns the current lifecycle state.
func (m *Mission) State() MissionState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Reason explains the current state (empty for clean states).
func (m *Mission) Reason() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reason
}

// Attempts returns how many attempts have started.
func (m *Mission) Attempts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.attempts
}

// Restarts returns how many supervised restarts have been spent.
func (m *Mission) Restarts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.restarts
}

// Fingerprint returns the final metrics fingerprint (zero until a
// terminal clean state).
func (m *Mission) Fingerprint() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fingerprint
}

// Summary returns the invariant audit of the final attempt.
func (m *Mission) Summary() verify.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.summary
}

// RecoveryTimes returns the wall-clock milliseconds each restart took
// from failure detection to the recovered attempt's first event.
func (m *Mission) RecoveryTimes() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.recoveryMs...)
}

// FirstEventLatency returns submit-to-first-event wall latency, or 0
// before the first event.
func (m *Mission) FirstEventLatency() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.firstEventAt.IsZero() {
		return 0
	}
	return m.firstEventAt.Sub(m.submittedAt)
}

func (m *Mission) setCancel(c context.CancelCauseFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cancel = c
}

// cancelWith aborts the in-flight attempt with the given cause (used by
// the watchdog). It is a no-op between attempts.
func (m *Mission) cancelWith(cause error) {
	m.mu.Lock()
	c := m.cancel
	m.mu.Unlock()
	if c != nil {
		c(cause)
	}
}

func (m *Mission) beginAttempt() {
	now := time.Now()
	m.mu.Lock()
	m.attempts++
	m.state = StateRunning
	m.mu.Unlock()
	m.attemptStart.Store(now.UnixNano())
	m.lastProgress.Store(now.UnixNano())
	m.running.Store(true)
}

func (m *Mission) endAttempt() {
	m.running.Store(false)
}

// noteProgress is called from inside the engine at the progress cadence.
func (m *Mission) noteProgress(events uint64, vnow time.Duration) {
	m.events.Store(events)
	m.virtualNS.Store(int64(vnow))
	m.lastProgress.Store(time.Now().UnixNano())
}

// noteFirstEvent is called when an attempt's first engine event fires:
// it stamps the submit-to-first-event latency once, and closes the
// recovery-time measurement opened by the previous crash.
func (m *Mission) noteFirstEvent() {
	now := time.Now()
	m.lastProgress.Store(now.UnixNano())
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.firstEventAt.IsZero() {
		m.firstEventAt = now
	}
	if !m.pendingCrash.IsZero() {
		m.recoveryMs = append(m.recoveryMs, float64(now.Sub(m.pendingCrash))/float64(time.Millisecond))
		m.pendingCrash = time.Time{}
	}
}

// noteFailure records a restartable failure (crash or stall) and opens
// the recovery-time measurement.
func (m *Mission) noteFailure(crash bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if crash {
		m.crashes++
	} else {
		m.stalls++
	}
	if m.pendingCrash.IsZero() {
		m.pendingCrash = time.Now()
	}
}

// MissionView is the JSON projection of a mission for the HTTP API.
type MissionView struct {
	ID            string    `json:"id"`
	State         string    `json:"state"`
	Reason        string    `json:"reason,omitempty"`
	Seed          int64     `json:"seed"`
	Attempts      int       `json:"attempts"`
	Restarts      int       `json:"restarts"`
	Crashes       int       `json:"crashes"`
	Stalls        int       `json:"stalls"`
	Events        uint64    `json:"events"`
	VirtualTime   string    `json:"virtual_time"`
	Checkpoints   int       `json:"checkpoints"`
	RecoveredFrom int       `json:"recovered_from_seq,omitempty"`
	Fingerprint   string    `json:"fingerprint,omitempty"`
	JournalDigest string    `json:"journal_digest,omitempty"`
	Violations    []string  `json:"violations,omitempty"`
	FirstEventMs  float64   `json:"submit_to_first_event_ms,omitempty"`
	RecoveryMs    []float64 `json:"recovery_ms,omitempty"`
}

// View snapshots the mission for serving.
func (m *Mission) View() MissionView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := MissionView{
		ID:            m.ID,
		State:         m.state.String(),
		Reason:        m.reason,
		Seed:          m.Scenario.Seed,
		Attempts:      m.attempts,
		Restarts:      m.restarts,
		Crashes:       m.crashes,
		Stalls:        m.stalls,
		Events:        m.events.Load(),
		VirtualTime:   time.Duration(m.virtualNS.Load()).String(),
		Checkpoints:   m.checkpoints,
		RecoveredFrom: m.recoveredFrom,
		Violations:    append([]string(nil), m.violations...),
		RecoveryMs:    append([]float64(nil), m.recoveryMs...),
	}
	if m.fingerprint != 0 {
		v.Fingerprint = fmt.Sprintf("%016x", m.fingerprint)
	}
	if m.journal != nil {
		v.JournalDigest = fmt.Sprintf("%016x", m.journal.Digest())
	}
	if !m.firstEventAt.IsZero() {
		v.FirstEventMs = float64(m.firstEventAt.Sub(m.submittedAt)) / float64(time.Millisecond)
	}
	return v
}
