package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/core"
	"iobt/internal/verify"
)

// This file is the service's side of one mission attempt. The attempt
// runs through verify.RunAttempt, the protocol behind verify.Run, so
// every attempt of a mission builds, arms and runs it exactly as a clean
// offline run does; the service adds only its own events (progress
// heartbeat, admission stamp, chaos) and its checkpoint hook, in the
// same order every attempt, so a recovery attempt replays the crashed
// one event for event up to the cut.
//
// Recovery is replay-anchored in the checkpoint hook. A recovering
// attempt re-runs the mission from t = 0; each cut it retakes whose seq
// is already durable must digest identically to the persisted record,
// or the attempt fails with errDivergence. When the retaken cut is the
// anchor (the latest persisted record), the hook restores the persisted
// anchor there, skipping the ARQ window, whose Restore deliberately
// requeues in-flight traffic (failover semantics, not replay semantics;
// the replayed live window is already byte-identical). A run that
// reaches its horizon without retaking the anchor has diverged too.

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

// progressEvery is the virtual cadence of the progress heartbeat.
const progressEvery = time.Second

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

// runAttempt executes one mission attempt to the scenario horizon.
// Panics are NOT recovered here — the supervisor's wrapper converts
// them to errPanicked — so the bare runner stays usable as a
// checkpoint.VerifyEquivalence hook.
func runAttempt(p attemptParams) (*verify.Outcome, error) {
	built, restored := false, false
	out, err := verify.RunAttempt(p.ctx, p.sc, p.journal, func(w *core.World, r *core.Runtime) error {
		built = true
		coord := r.Checkpoints()
		if p.anchor != nil && coord == nil {
			return fmt.Errorf("%w: checkpoint record exists but the mission has no coordinator", errDivergence)
		}
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
					// Replaying already-durable ground: the retaken cut must
					// digest identically, or the replay has silently diverged.
					if got := ck.Digest(); got != want {
						p.cancel(fmt.Errorf("%w: replayed cut seq %d digest %016x != persisted %016x",
							errDivergence, ck.Seq, got, want))
						return
					}
					if p.anchor != nil && ck.Seq == p.anchor.Seq {
						if err := coord.RestoreCheckpoint(p.anchor.Checkpoint,
							func(name string) bool { return name != "arq" }); err != nil {
							p.cancel(fmt.Errorf("%w: %v", errDivergence, err))
							return
						}
						restored = true
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

		// Progress heartbeat and event budget, on the virtual clock:
		// while the engine makes progress the watchdog sees it; when an
		// event wedges, the heartbeat stops with it.
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
		return nil
	})
	switch {
	case err != nil && !built:
		return nil, fmt.Errorf("%w: %v", errSynthesis, err)
	case err != nil:
		return nil, err
	case p.anchor != nil && !restored:
		return nil, fmt.Errorf("%w: anchor seq %d was not retaken before the horizon (%s)",
			errDivergence, p.anchor.Seq, p.sc.Horizon)
	}
	return out, nil
}
