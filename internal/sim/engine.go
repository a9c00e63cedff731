// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every IoBT experiment in this
// repository: a virtual clock, a priority queue of timestamped events, and
// seeded random-number streams. Determinism is a hard requirement — two
// runs with the same seed must produce identical traces — so all
// randomness used anywhere in the system must come from Engine.Stream
// streams, never from math/rand's global source or from time.Now.
package sim

import (
	"context"
	"math"
	"time"
)

// Handle refers to a scheduled event and allows cancellation. A Handle
// outliving its event is safe: popping recycles the event under a new
// generation before anything else runs, so the stale Handle reports
// !Pending and Cancel is a no-op.
type Handle struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. Returns true if the event was
// pending and is now canceled.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.ev.canceled = true
	return true
}

// Pending reports whether the event is still queued and not canceled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Engine is a single-threaded discrete-event simulator: one lane of the
// shared event core (lane.go) holding one actor, so its events carry the
// key (at, actor 0, class 0, seq, 0) and equal timestamps fire FIFO.
//
// Engine is not safe for concurrent use; the simulated world is
// deliberately sequential so that runs are reproducible. Concurrency in
// the modeled system is expressed as interleaved events, not goroutines.
type Engine struct {
	ln  lane
	seq uint64 // the one actor's schedule sequence
	rng *RNG
}

// NewEngine returns an engine with its virtual clock at zero and a master
// RNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.ln.now }

// Processed returns the number of events executed so far. Unlike the
// rest of the engine it is safe to call from any goroutine.
func (e *Engine) Processed() uint64 { return e.ln.processed.Load() }

// Stream derives an independent, reproducible random stream from the
// engine seed and the given name. Use one stream per concern (mobility,
// channel noise, attacks …) so that adding randomness to one subsystem
// does not perturb another.
func (e *Engine) Stream(name string) *RNG { return e.rng.Derive(name) }

// Schedule queues fn to run after delay. A negative delay is an error in
// the model; it is clamped to zero so causality is preserved.
//
//iobt:hot
func (e *Engine) Schedule(delay time.Duration, label string, fn func()) Handle {
	ev := e.ln.schedule(e.ln.now, delay, 0, &e.seq, label)
	ev.plain = fn
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleAt queues fn at an absolute virtual time. Times in the past are
// clamped to now.
func (e *Engine) ScheduleAt(at time.Duration, label string, fn func()) Handle {
	return e.Schedule(at-e.Now(), label, fn)
}

// Every schedules fn to run every interval until the returned ticker is
// stopped. The first firing is one interval from now.
func (e *Engine) Every(interval time.Duration, label string, fn func()) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{engine: e, interval: interval, label: label, fn: fn}
	t.arm()
	return t
}

// Ticker is a repeating event created by Engine.Every.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	label    string
	fn       func()
	handle   Handle
	stopped  bool
}

func (t *Ticker) arm() {
	t.handle = t.engine.Schedule(t.interval, t.label, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop halts future firings. In-flight firings already dequeued still run.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step executes the single next event, advancing the clock. It returns
// false when the queue is empty.
//
//iobt:hot
func (e *Engine) Step() bool {
	for e.ln.queue.len() > 0 {
		if e.ln.step(e.ln.now) {
			return true
		}
	}
	return false
}

// Run executes events until the queue drains or the horizon is reached.
// A zero horizon means no time limit.
func (e *Engine) Run(horizon time.Duration) error {
	return e.RunContext(context.Background(), horizon)
}

// RunContext is Run with cooperative cancellation, the one way to stop a
// run early: the loop observes ctx between events and returns
// context.Cause(ctx) once it is cancelled, so the cancelling event
// finishes and a later Run resumes with the next one. Cancellation never
// perturbs determinism — the event order is fixed by the queue; ctx only
// decides how far along it the run gets. A background context (nil Done
// channel) adds no per-event cost.
func (e *Engine) RunContext(ctx context.Context, horizon time.Duration) error {
	done := ctx.Done()
	limit := time.Duration(math.MaxInt64)
	if horizon != 0 {
		limit = e.ln.now + horizon
	}
	for {
		if done != nil {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
		}
		next, ok := e.ln.queue.minAt()
		if !ok {
			return nil
		}
		if next > limit {
			// A negative horizon leaves the clock where it is: like
			// Sharded's, it never runs backwards.
			e.ln.now = max(e.ln.now, limit)
			return nil
		}
		e.Step()
	}
}
