package sim

// Sharded is the parallel counterpart of Engine: the simulated world is
// spatially partitioned into shards, each advancing its own lane of the
// shared event core (lane.go) on a worker goroutine, synchronized by
// conservative time windows. The
// determinism contract is stronger than "same seed, same run": the same
// seed must produce byte-identical model state for ANY shard count, so
// sharding is purely a performance knob, never a semantic one.
//
// The protocol (DESIGN.md §12):
//
//   - Every event belongs to exactly one actor, and every actor is owned
//     by exactly one shard. An actor's state may only be touched by
//     events executing on that actor.
//   - Time advances in windows of width Lookahead. A shard may execute
//     an event at virtual time t only when every shard has finished the
//     window before t — enforced by a barrier between windows.
//   - Cross-actor interaction travels as a scheduled delivery (Send)
//     with delay >= Lookahead, so anything sent during window k arrives
//     in window k+1 or later and the barrier has already exchanged it.
//     Deliveries to another shard are staged in that shard's mailbox and
//     merged, deterministically sorted, at the barrier.
//   - Events are totally ordered by a partition-independent key
//     (time, actor, class, a, b): per-actor schedule order for local
//     events, (sender, sender-sequence) for deliveries. A 1-shard run
//     executes exactly this order; an N-shard run executes each actor's
//     subsequence of it, which is indistinguishable to the model.
//
// Randomness: derive one stream per actor (or per stable concern) with
// Stream and draw from it only inside that actor's events. Per-shard
// streams would break shard-count invariance — actor-to-shard assignment
// changes with the shard count, stable names do not.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ActorID identifies one model entity (a node, an asset) owned by
// exactly one shard. IDs must be small non-negative integers; the
// engine indexes actors by ID.
type ActorID int32

// ShardedConfig parameterizes a Sharded engine.
type ShardedConfig struct {
	// Shards is the number of partitions and worker goroutines
	// (default 1).
	Shards int
	// Lookahead is the conservative window width: the minimum latency of
	// any cross-actor Send (default 100ms). Smaller lookahead means finer
	// synchronization and more barriers; it never changes results.
	Lookahead time.Duration
}

func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Lookahead <= 0 {
		c.Lookahead = 100 * time.Millisecond
	}
	return c
}

// actorMeta is the engine's bookkeeping for one actor. shard is written
// only at barriers (coordinator) and read during windows; seq and
// sendSeq are written only by the owning lane's worker.
type actorMeta struct {
	shard   int32
	seq     uint64
	sendSeq uint64
	present bool
}

// ShardPanicError reports a panic inside a shard worker. The barrier
// protocol guarantees the remaining workers still finish their window
// and the run returns this error instead of deadlocking.
type ShardPanicError struct {
	Shard int
	Value any
	Stack []byte
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v", e.Shard, e.Value)
}

// Sharded is the spatially partitioned parallel discrete-event engine.
// Setup (AddActor, ScheduleActor) is single-threaded and happens between
// runs; Run drives the worker pool. Observers may call Now, Processed
// and ClampedSends from any goroutine during a run.
type Sharded struct {
	cfg   ShardedConfig
	rng   *RNG
	lanes []*lane

	actors []actorMeta

	nowNS   atomic.Int64
	running atomic.Bool

	panicMu sync.Mutex
	panics  []*ShardPanicError

	// workCh, when non-nil, carries window assignments to the persistent
	// per-lane workers spawned for the duration of one RunContext call;
	// windowWG joins each window, workerWG joins worker shutdown.
	// Spawning once per run instead of once per window keeps the
	// per-window cost to channel handoffs (no goroutine or closure
	// allocation on the steady-state path).
	workCh   []chan windowSpec
	windowWG sync.WaitGroup
	workerWG sync.WaitGroup
}

// windowSpec is one window assignment handed to a lane worker.
type windowSpec struct {
	end       time.Duration
	inclusive bool
}

// NewSharded returns a sharded engine seeded with seed.
func NewSharded(seed int64, cfg ShardedConfig) *Sharded {
	cfg = cfg.withDefaults()
	s := &Sharded{cfg: cfg, rng: NewRNG(seed)}
	s.lanes = make([]*lane, cfg.Shards)
	for i := range s.lanes {
		ln := &lane{id: i}
		ln.ctx.ln = ln
		ln.ctx.s = s
		s.lanes[i] = ln
	}
	return s
}

// Now returns the conservative global virtual clock: exact between
// windows, a lower bound while a window executes. Safe from any
// goroutine.
func (s *Sharded) Now() time.Duration { return time.Duration(s.nowNS.Load()) }

// Processed returns the total number of executed events, aggregated
// from the per-shard atomic counters. Safe from any goroutine.
func (s *Sharded) Processed() uint64 {
	var n uint64
	for _, ln := range s.lanes {
		n += ln.processed.Load()
	}
	return n
}

// ClampedSends returns how many Send delays were raised to the
// Lookahead floor, aggregated from the per-shard atomic counters. Safe
// from any goroutine. The count is attributed to the *sending* shard,
// so it is shard-count dependent per lane but invariant in total.
func (s *Sharded) ClampedSends() uint64 {
	var n uint64
	for _, ln := range s.lanes {
		n += ln.clamped.Load()
	}
	return n
}

// Stream derives an independent, reproducible random stream from the
// engine seed and name, exactly like Engine.Stream. Derive one stream
// per actor (e.g. "node/17") at setup and draw from it only inside that
// actor's events.
func (s *Sharded) Stream(name string) *RNG { return s.rng.Derive(name) }

// AddActor registers actor id on the given shard. Call before Run; ids
// must be non-negative and the shard must be in range. Re-adding an
// existing actor moves it, with its pending events, to the new shard.
func (s *Sharded) AddActor(id ActorID, shard int) {
	if id < 0 {
		panic(fmt.Sprintf("sim: negative actor id %d", id))
	}
	if shard < 0 || shard >= s.cfg.Shards {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", shard, s.cfg.Shards))
	}
	if s.running.Load() {
		panic("sim: AddActor during Run")
	}
	for int(id) >= len(s.actors) {
		s.actors = append(s.actors, actorMeta{})
	}
	m := &s.actors[id]
	from := m.shard
	m.shard = int32(shard)
	if m.present && from != m.shard {
		s.rehome(s.lanes[from])
	}
	m.present = true
}

// ScheduleActor queues a local event on actor id at delay from the
// current global clock. Setup-time counterpart of ShardCtx.Schedule;
// call before Run or between runs, never during one.
func (s *Sharded) ScheduleActor(id ActorID, delay time.Duration, label string, fn func(*ShardCtx)) {
	if s.running.Load() {
		panic("sim: ScheduleActor during Run (use ShardCtx.Schedule)")
	}
	s.mustActor(id)
	m := &s.actors[id]
	s.lanes[m.shard].schedule(s.Now(), delay, id, &m.seq, label).fn = fn
}

func (s *Sharded) mustActor(id ActorID) {
	if id < 0 || int(id) >= len(s.actors) || !s.actors[id].present {
		panic(fmt.Sprintf("sim: unknown actor %d", id))
	}
}

// Run executes windows until every queue drains or the horizon is
// reached. A zero horizon means no time limit.
func (s *Sharded) Run(horizon time.Duration) error {
	return s.RunContext(context.Background(), horizon)
}

// RunContext is Run with cooperative cancellation, the one way to stop a
// run early: workers observe the context between events, the coordinator
// between windows, and the run returns context.Cause(ctx) once
// cancelled. Like Engine.RunContext, cancellation decides how far the
// fixed event order gets, never what the order is.
func (s *Sharded) RunContext(ctx context.Context, horizon time.Duration) error {
	if s.running.Swap(true) {
		return errors.New("sim: sharded engine already running")
	}
	defer s.running.Store(false)
	s.panics = nil

	w := s.cfg.Lookahead
	limit := time.Duration(math.MaxInt64)
	if horizon != 0 {
		limit = s.Now() + horizon
	}
	done := ctx.Done()
	if len(s.lanes) > 1 {
		s.startWorkers(ctx)
		defer s.stopWorkers()
	}
	// A previous interrupted run may have left staged deliveries in the
	// mailboxes; fold them in so nextEventTime sees the whole backlog.
	s.drainInboxes()

	for {
		if done != nil {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
		}
		next, ok := s.nextEventTime()
		if !ok {
			// Drained. Leave the clock at the last window boundary (or
			// advance to the horizon so timed runs end at their limit).
			if horizon != 0 {
				s.setNow(limit)
			}
			return nil
		}
		if next > limit {
			s.setNow(limit)
			return nil
		}
		// Jump to the window containing the next event: empty windows
		// cost nothing.
		k := next / w
		end := (k + 1) * w
		inclusive := false
		if end >= limit {
			end = limit
			inclusive = true // the final window executes events AT the horizon
		}
		s.runWindow(ctx, end, inclusive)
		// Staged deliveries are folded into the queues in every exit path
		// so an interrupted run never strands events in a mailbox.
		s.drainInboxes()
		s.applyMigrations()
		if err := s.takePanic(); err != nil {
			return err
		}
		if done != nil {
			// Cancelled mid-window: workers bail out between events, so
			// the clock stays at the last barrier and a resumed run
			// re-enters the unfinished window.
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
		}
		s.setNow(end)
		// No early return after an inclusive window: deliveries generated
		// inside it may land exactly at the horizon and, like Engine's
		// at-most-limit semantics, must still execute. The loop exits when
		// nothing at or before the limit remains.
	}
}

// nextEventTime returns the earliest queued event time across all lanes
// (inboxes are empty between windows).
func (s *Sharded) nextEventTime() (time.Duration, bool) {
	var next time.Duration
	found := false
	for _, ln := range s.lanes {
		if at, ok := ln.queue.minAt(); ok && (!found || at < next) {
			next = at
			found = true
		}
	}
	return next, found
}

// setNow raises the global clock (it never rewinds: an interrupted
// window may leave the store ahead of an individual lane).
func (s *Sharded) setNow(t time.Duration) {
	if int64(t) > s.nowNS.Load() {
		s.nowNS.Store(int64(t))
	}
	for _, ln := range s.lanes {
		if ln.now < t {
			ln.now = t
		}
	}
}

// startWorkers spawns one persistent goroutine per lane for the
// duration of a multi-shard run. Workers block on their assignment
// channel, execute the window on their own lane, and report back
// through windowWG — the barrier cannot deadlock because workers only
// pop their own queue and stage into mutex-guarded mailboxes, never
// wait on each other.
func (s *Sharded) startWorkers(ctx context.Context) {
	s.workCh = make([]chan windowSpec, len(s.lanes))
	for i, ln := range s.lanes {
		ch := make(chan windowSpec, 1)
		s.workCh[i] = ch
		s.workerWG.Add(1)
		go func(ln *lane, ch chan windowSpec) {
			defer s.workerWG.Done()
			for spec := range ch {
				s.laneWindowGuarded(ln, ctx, spec.end, spec.inclusive)
				s.windowWG.Done()
			}
		}(ln, ch)
	}
}

// stopWorkers shuts the worker pool down and waits for every worker to
// exit, so no goroutine outlives the Run call that spawned it.
func (s *Sharded) stopWorkers() {
	for _, ch := range s.workCh {
		close(ch)
	}
	s.workerWG.Wait()
	s.workCh = nil
}

// laneWindowGuarded is laneWindow behind the worker panic fence: a
// panicking event is recorded (and surfaced at the barrier) without
// killing the worker, so the window still joins.
func (s *Sharded) laneWindowGuarded(ln *lane, ctx context.Context, end time.Duration, inclusive bool) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic(&ShardPanicError{Shard: ln.id, Value: r, Stack: debug.Stack()})
		}
	}()
	s.laneWindow(ln, ctx, end, inclusive)
}

// runWindow executes one window on every lane: handed to the
// persistent workers when a multi-shard run has them up, inline
// otherwise (single shard, and barrier-time use).
func (s *Sharded) runWindow(ctx context.Context, end time.Duration, inclusive bool) {
	if s.workCh == nil {
		for _, ln := range s.lanes {
			s.laneWindow(ln, ctx, end, inclusive)
		}
		return
	}
	s.windowWG.Add(len(s.workCh))
	for _, ch := range s.workCh {
		ch <- windowSpec{end: end, inclusive: inclusive}
	}
	s.windowWG.Wait()
}

// laneWindow drains one lane's queue up to the window end (strict, so
// boundary events wait for the barrier that delivers their mail —
// inclusive only at the final horizon window, mirroring Engine's
// at-most-limit semantics).
//
//iobt:hot
func (s *Sharded) laneWindow(ln *lane, ctx context.Context, end time.Duration, inclusive bool) {
	done := ctx.Done()
	for {
		at, ok := ln.queue.minAt()
		if !ok || at > end || (at == end && !inclusive) {
			break
		}
		if done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		ln.step(time.Duration(s.nowNS.Load()))
	}
}

func (s *Sharded) recordPanic(p *ShardPanicError) {
	s.panicMu.Lock()
	s.panics = append(s.panics, p)
	s.panicMu.Unlock()
}

// takePanic returns the recorded worker panic with the lowest shard id
// (deterministic when several shards panicked in one window), or nil.
func (s *Sharded) takePanic() error {
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	if len(s.panics) == 0 {
		return nil
	}
	sort.Slice(s.panics, func(i, j int) bool { return s.panics[i].Shard < s.panics[j].Shard })
	return s.panics[0]
}

// drainInboxes merges every lane's mailbox into its queue. Merged order
// cannot depend on which worker staged first: the five-part event key
// is strictly unique (per-actor schedule sequences, per-sender send
// sequences), so the queue's pop sequence is the sorted key order
// whatever the push order was — no pre-sort needed. The drained buffer
// is kept as the spare and swapped back in at the next barrier, so
// steady-state staging reuses two ping-ponged buffers instead of
// growing a fresh slice every window.
//
//iobt:hot
func (s *Sharded) drainInboxes() {
	for _, ln := range s.lanes {
		//iobt:allow defercycle one uncontended lock per lane per barrier swaps the staged mailbox out; the lock bounds worker staging, not per-event work
		ln.inboxMu.Lock()
		in := ln.inbox
		ln.inbox = ln.inboxSpare[:0]
		ln.inboxMu.Unlock()
		for _, ev := range in {
			ln.queue.push(ev)
		}
		clear(in) // drop event pointers so the spare pins nothing
		ln.inboxSpare = in[:0]
	}
}

// applyMigrations hands staged actors to their new shards, moving every
// pending event with them so nothing is dropped or duplicated. Staged
// entries for one actor all come from its owning lane in execution
// order, so "last staged wins" is deterministic — and is resolved first,
// so that however many actors leave a lane its queue is walked once.
func (s *Sharded) applyMigrations() {
	for _, ln := range s.lanes {
		if len(ln.migrations) == 0 {
			continue
		}
		left := false
		for _, mg := range ln.migrations {
			if m := &s.actors[mg.actor]; m.shard != mg.to {
				m.shard = mg.to
				left = true
			}
		}
		ln.migrations = ln.migrations[:0]
		if left { // most staged handoffs re-assert the current owner
			s.rehome(ln)
		}
	}
}

// rehome moves every event queued on ln whose actor is now owned by
// another lane to that lane: one in-place unlink pass over ln's queue,
// whatever the number of actors leaving, then a push of each mover.
// Push order is irrelevant: the event key is a strict total order, so
// the destination queue pops the same sequence either way.
func (s *Sharded) rehome(ln *lane) {
	ev := ln.queue.filter(func(ev *event) bool {
		return s.lanes[s.actors[ev.actor].shard] != ln
	})
	for ev != nil {
		next := ev.next
		s.lanes[s.actors[ev.actor].shard].queue.push(ev)
		ev = next
	}
}

// ShardCtx is the execution context handed to every event callback. It
// is owned by the executing worker and must not be retained beyond the
// callback.
type ShardCtx struct {
	s     *Sharded
	ln    *lane
	actor ActorID
	from  ActorID
	at    time.Duration
}

// Now returns the executing event's virtual time.
func (c *ShardCtx) Now() time.Duration { return c.at }

// Self returns the actor the current event belongs to.
func (c *ShardCtx) Self() ActorID { return c.actor }

// From returns the actor whose Send delivered the current event — the
// sender its key already carries — or Self for a locally scheduled one
// (Schedule, ScheduleActor).
func (c *ShardCtx) From() ActorID { return c.from }

// Shard returns the executing shard's index (an observability aid; the
// model must never branch on it).
func (c *ShardCtx) Shard() int { return c.ln.id }

// Schedule queues a local follow-up event on the current actor. Local
// events may use any non-negative delay — they stay on this shard and
// need no lookahead.
//
//iobt:hot
func (c *ShardCtx) Schedule(delay time.Duration, label string, fn func(*ShardCtx)) {
	c.ln.schedule(c.at, delay, c.actor, &c.s.actors[c.actor].seq, label).fn = fn
}

// Send schedules fn on actor dst after delay. Cross-actor causality is
// what the conservative windows synchronize, so the delay is clamped up
// to the engine Lookahead: anything sent during this window arrives in
// a later one, staged in the mailbox of whichever shard owns dst and
// merged at the barrier. Ordering is by (time, dst, sender,
// sender-sequence). Each clamp increments the sending shard's counter,
// surfaced by ClampedSends — a model whose latencies routinely ride the
// floor is really simulating the Lookahead, not its stated delays.
//
//iobt:hot
func (c *ShardCtx) Send(dst ActorID, delay time.Duration, label string, fn func(*ShardCtx)) {
	s := c.s
	s.mustActor(dst)
	if delay < s.cfg.Lookahead {
		delay = s.cfg.Lookahead
		c.ln.clamped.Add(1)
	}
	src := &s.actors[c.actor]
	// The event struct comes from the *sender's* lane pool (the only one
	// this worker owns) and is freed into the executing lane's pool.
	ev := c.ln.allocEvent()
	ev.at = c.at + delay
	ev.actor = dst
	ev.class = 1
	ev.a = uint64(c.actor)
	ev.b = src.sendSeq
	ev.label = label
	ev.fn = fn
	src.sendSeq++
	// Every delivery goes through the destination mailbox — even to the
	// sender's own shard. A same-shard fast path into the live queue
	// would run a delivery sent in the final (inclusive) window in key
	// order when co-sharded but one window later when cross-sharded, so
	// same-time deliveries to one actor would run in a shard-count-
	// dependent order (DESIGN.md §9, audit #17).
	dl := s.lanes[s.actors[dst].shard]
	dl.inboxMu.Lock()
	dl.inbox = append(dl.inbox, ev)
	dl.inboxMu.Unlock()
}

// Migrate stages a handoff of the current actor to another shard,
// applied at the next barrier together with every pending event (the
// spatial layer calls this when mobility carries an actor across a
// shard boundary). Migration never reorders events — ordering is keyed
// by actor, not by shard.
func (c *ShardCtx) Migrate(shard int) {
	if shard < 0 || shard >= c.s.cfg.Shards {
		panic(fmt.Sprintf("sim: migrate to shard %d out of range [0,%d)", shard, c.s.cfg.Shards))
	}
	c.ln.migrations = append(c.ln.migrations, migration{actor: c.actor, to: int32(shard)})
}
