package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/core"
	"iobt/internal/sim"
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
// A retry re-runs the mission from t = 0 to its latest persisted cut,
// the anchor; a mission that crashed before its first cut has none and
// simply runs again. Recovery is verified replay, nothing more: each cut
// the retry retakes whose seq is already durable must digest identically
// to the persisted record, or the attempt fails with errDivergence, and
// the mission counts its recovery when the retaken anchor matches. A run
// that reaches its horizon without retaking the anchor (a mission with
// no checkpoint coordinator retakes none) has diverged too.

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
}

// progressEvery is the virtual cadence of the progress heartbeat.
const progressEvery = time.Second

// attempt runs m's next attempt through verify.RunAttempt, recording
// into j and replaying to the durable cut anchor (0: a fresh start).
// Around the run sit the panic fence, which turns a worker crash into
// errPanicked, and the cancel hook through which the watchdog and the
// budgets abort it; its prestart registers the checkpoint hook, the
// progress heartbeat, the admission stamp and chaos.
func (s *Service) attempt(m *Mission, j *checkpoint.Journal, anchor int) (out *verify.Outcome, aerr error) {
	defer func() {
		if p := recover(); p != nil {
			aerr = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	ctx, cancel := context.WithCancelCause(s.ctx)
	defer cancel(nil)
	m.setCancel(cancel)
	defer m.setCancel(nil)

	chaos := s.chaosFor(m)
	built, retaken := false, false
	out, err := verify.RunAttempt(ctx, m.Scenario, j, func(w *core.World, r *core.Runtime) error {
		built = true
		if coord := r.Checkpoints(); coord != nil {
			prev := coord.OnCheckpoint
			coord.OnCheckpoint = func(ck *checkpoint.Checkpoint, digest uint64) {
				if prev != nil {
					prev(ck, digest)
				}
				if limit := s.cfg.MaxCheckpointBytes; limit > 0 && ck.Bytes() > limit {
					cancel(fmt.Errorf("%w: cut seq %d is %d bytes (limit %d)",
						errCheckpointBudget, ck.Seq, ck.Bytes(), limit))
					return
				}
				// A durable seq is replayed ground: the retaken cut must
				// digest like its record, or the replay has diverged.
				want, durable := m.digests[ck.Seq]
				if !durable {
					rec := checkpoint.Record{Seq: ck.Seq, At: ck.At, Processed: w.Eng.Processed(), Checkpoint: ck}
					if err := m.persist(rec, digest); err != nil {
						cancel(fmt.Errorf("%w: %v", errStoreWrite, err))
					}
					return
				}
				if digest != want {
					cancel(fmt.Errorf("%w: replayed cut seq %d digest %016x != persisted %016x",
						errDivergence, ck.Seq, digest, want))
					return
				}
				if ck.Seq == anchor {
					retaken = true
					m.mu.Lock()
					m.recoveries++
					m.mu.Unlock()
				}
			}
		}

		// Progress heartbeat and event budget, on the virtual clock:
		// while the engine makes progress the watchdog sees it; when an
		// event wedges, the heartbeat stops with it.
		w.Eng.Every(progressEvery, "service.progress", func() {
			n := w.Eng.Processed()
			m.noteProgress(n, w.Eng.Now())
			if limit := s.cfg.MaxEvents; limit > 0 && n > limit {
				cancel(fmt.Errorf("%w: %d events executed (limit %d)", errEventBudget, n, limit))
			}
		})
		// Admission stamp: fires as the attempt's first executed event.
		w.Eng.Schedule(0, "service.admit", m.noteFirstEvent)
		if chaos != nil {
			w.Eng.ScheduleAt(chaos.at, "service.chaos", func() {
				if chaos.stall {
					<-ctx.Done()
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
	case anchor != 0 && !retaken:
		return nil, fmt.Errorf("%w: anchor seq %d was not retaken before the horizon (%s)",
			errDivergence, anchor, m.Scenario.Horizon)
	}
	return out, nil
}

// chaosFor derives the mission's injected failure, if any, from its
// seed: deterministic, so a chaos run is as reproducible as a clean one.
// Only the leading CrashAttempts attempts fail; recovery attempts beyond
// that run undisturbed.
func (s *Service) chaosFor(m *Mission) *chaosPlan {
	c := s.cfg.Chaos
	if c.CrashProb <= 0 || m.Attempts() > c.CrashAttempts {
		return nil
	}
	rng := sim.NewRNG(m.Scenario.Seed).Derive("service.chaos")
	if !rng.Bool(c.CrashProb) {
		return nil
	}
	frac := c.AtFrac
	if frac <= 0 {
		frac = rng.Uniform(0.3, 0.7)
	}
	return &chaosPlan{at: time.Duration(frac * float64(m.Scenario.Horizon)), stall: c.Stall}
}
