package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/fault"
	"iobt/internal/verify"
)

// This file is the deterministic heart of the service: one mission
// attempt, from scenario to horizon. Every attempt of the same mission
// builds the mission through verify.BuildMission, applies its fault
// plan and then schedules the same service events in the same order
// (progress ticker, admission stamp, chaos), so a recovery attempt
// replays the exact event sequence of the crashed one up to the
// checkpoint cut — which is what lets the service prove, by byte
// comparison, that it restored the mission rather than a lookalike.
//
// Recovery is replay-anchored: a checkpoint record stores the engine's
// executed-event count at the cut. The recovering attempt rebuilds the
// world from the scenario recipe, runs until exactly that many events
// have executed (landing on the cut instant even when several events
// share its timestamp), byte-compares its live captured state against
// the persisted sections, then literally restores the persisted
// checkpoint — skipping the ARQ window, whose Restore deliberately
// requeues in-flight traffic (failover semantics, not replay semantics;
// the replayed live window is already byte-identical) — and continues
// to the horizon.

// Attempt failure taxonomy. Restartable: errPanicked, errStalled.
var (
	errPanicked         = errors.New("worker panicked")
	errStalled          = errors.New("watchdog: no event progress within stall budget")
	errWallBudget       = errors.New("budget: wall-clock limit exceeded")
	errEventBudget      = errors.New("budget: event limit exceeded")
	errCheckpointBudget = errors.New("budget: checkpoint size limit exceeded")
	errSynthesis        = errors.New("mission synthesis failed")
	errDivergence       = errors.New("recovery: replay diverged from persisted checkpoint")
	errStoreWrite       = errors.New("checkpoint store write failed")
	errServiceStopped   = errors.New("service stopped")
)

// restartable reports whether a failed attempt may be retried from the
// latest checkpoint. Budget and divergence failures are deterministic —
// a retry would fail identically — so only crashes and stalls restart.
func restartable(err error) bool {
	return errors.Is(err, errPanicked) || errors.Is(err, errStalled)
}

// chaosPlan is an injected worker failure for tests, the soak job, and
// the flood harness: a panic (or stall) fired from inside the engine at
// a virtual instant.
type chaosPlan struct {
	at    time.Duration
	stall bool
	ctx   context.Context // stall loop exits when the attempt is cancelled
}

// Virtual cadences of the invariant sweep and the progress heartbeat.
const (
	invariantEvery = time.Second
	progressEvery  = time.Second
)

// attemptParams is one attempt's full recipe.
type attemptParams struct {
	sc     verify.Scenario
	ctx    context.Context
	cancel context.CancelCauseFunc
	// journal records mission decisions; fresh per attempt.
	journal *checkpoint.Journal
	// Budgets (zero: unlimited). Wall-clock budgets live in the watchdog.
	maxEvents          uint64
	maxCheckpointBytes int
	// chaos, when non-nil, injects a worker failure.
	chaos *chaosPlan
	// anchor, when non-nil, is the checkpoint record to recover from.
	anchor *checkpoint.Record
	// persistedDigests maps already-durable checkpoint seqs to their
	// digests; replayed cuts are cross-checked instead of re-persisted.
	persistedDigests map[int]uint64
	// onCheckpoint persists a fresh cut; a returned error aborts the
	// attempt terminally.
	onCheckpoint func(rec checkpoint.Record) error
	// onProgress / onFirstEvent feed the watchdog and latency metrics.
	onProgress   func(events uint64, vnow time.Duration)
	onFirstEvent func()
}

// attemptOutcome is a finished attempt's result.
type attemptOutcome struct {
	fingerprint   uint64
	summary       verify.Summary
	violations    []verify.Violation
	events        uint64
	recoveredFrom int
	journal       *checkpoint.Journal
}

// runAttempt executes one mission attempt to the scenario horizon.
// Panics are NOT recovered here — the supervisor's wrapper converts
// them to errPanicked — so the bare runner stays usable as a
// checkpoint.VerifyEquivalence hook.
func runAttempt(p attemptParams) (*attemptOutcome, error) {
	sc := p.sc
	w, r, invs, err := verify.BuildMission(sc, p.journal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errSynthesis, err)
	}
	if sc.Plan != nil && len(sc.Plan.Faults) > 0 {
		fault.Apply(w.FaultTarget(r), sc.Plan)
	}
	defer w.Stop()
	defer r.Stop()

	coord := r.Checkpoints()
	if coord != nil {
		prev := coord.OnCheckpoint
		coord.OnCheckpoint = func(ck *checkpoint.Checkpoint) {
			if prev != nil {
				prev(ck)
			}
			if p.maxCheckpointBytes > 0 && ck.Bytes() > p.maxCheckpointBytes {
				p.cancel(fmt.Errorf("%w: cut seq %d is %d bytes (limit %d)",
					errCheckpointBudget, ck.Seq, ck.Bytes(), p.maxCheckpointBytes))
				return
			}
			if want, ok := p.persistedDigests[ck.Seq]; ok {
				// Replaying already-durable ground: the re-taken cut must
				// digest identically, or the replay has silently diverged.
				if got := ck.Digest(); got != want {
					p.cancel(fmt.Errorf("%w: replayed cut seq %d digest %016x != persisted %016x",
						errDivergence, ck.Seq, got, want))
				}
				return
			}
			if p.onCheckpoint != nil {
				rec := checkpoint.Record{Seq: ck.Seq, At: ck.At, Processed: w.Eng.Processed(), Checkpoint: ck}
				if err := p.onCheckpoint(rec); err != nil {
					p.cancel(fmt.Errorf("%w: %v", errStoreWrite, err))
				}
			}
		}
	}

	// Progress heartbeat and event budget, on the virtual clock: while
	// the engine makes progress the watchdog sees it; when an event
	// wedges, the heartbeat stops with it.
	w.Eng.Every(progressEvery, "service.progress", func() {
		n := w.Eng.Processed()
		if p.onProgress != nil {
			p.onProgress(n, w.Eng.Now())
		}
		if p.maxEvents > 0 && n > p.maxEvents {
			p.cancel(fmt.Errorf("%w: %d events executed (limit %d)", errEventBudget, n, p.maxEvents))
		}
	})
	// Admission stamp: fires as the attempt's first executed event.
	w.Eng.Schedule(0, "service.admit", func() {
		if p.onFirstEvent != nil {
			p.onFirstEvent()
		}
	})

	reg := verify.NewRegistry()
	reg.Add(invs...)

	if c := p.chaos; c != nil {
		w.Eng.ScheduleAt(c.at, "service.chaos", func() {
			if c.stall {
				for c.ctx.Err() == nil {
					time.Sleep(time.Millisecond)
				}
				return
			}
			panic(fmt.Sprintf("chaos: injected worker crash at %s", w.Eng.Now()))
		})
	}

	reg.Arm(w.Eng, invariantEvery)
	defer reg.Disarm()

	out := &attemptOutcome{journal: p.journal}
	if p.anchor != nil {
		if coord == nil {
			return nil, fmt.Errorf("%w: checkpoint record exists but the mission has no coordinator", errDivergence)
		}
		target := p.anchor.Processed
		if !w.Eng.RunUntil(func() bool { return w.Eng.Processed() >= target }, target+1) {
			return nil, fmt.Errorf("%w: event queue drained after %d events (anchor at %d)",
				errDivergence, w.Eng.Processed(), target)
		}
		if p.ctx.Err() != nil {
			return nil, context.Cause(p.ctx)
		}
		live := coord.Capture()
		if got, want := live.Digest(), p.anchor.Checkpoint.Digest(); got != want {
			return nil, fmt.Errorf("%w: replayed state digest %016x != persisted %016x at seq %d",
				errDivergence, got, want, p.anchor.Seq)
		}
		if err := coord.RestoreCheckpoint(p.anchor.Checkpoint,
			func(name string) bool { return name != "arq" }); err != nil {
			return nil, fmt.Errorf("%w: %v", errDivergence, err)
		}
		out.recoveredFrom = p.anchor.Seq
	}

	if remaining := sc.Horizon - w.Eng.Now(); remaining > 0 {
		if err := w.RunContext(p.ctx, remaining); err != nil {
			return nil, err
		}
	}

	// Final sweep at the horizon so end-state violations are caught even
	// when the last periodic tick predates the final events.
	reg.CheckNow(w.Eng.Now())

	out.fingerprint = r.Metrics.Fingerprint()
	out.summary = reg.Summarize()
	out.violations = reg.Violations()
	out.events = w.Eng.Processed()
	return out, nil
}

// planString canonicalizes the fault plan for journal headers.
func planString(sc verify.Scenario) string {
	if sc.Plan == nil {
		return ""
	}
	return sc.Plan.String()
}
