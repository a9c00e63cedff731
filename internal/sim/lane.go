package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// event is one queued unit of work. The five-part key (at, actor,
// class, a, b) totally orders all events in a run and depends only on
// model decisions, never on the shard count. An Engine event is
// (at, 0, 0, seq, 0): FIFO among equal timestamps.
//
// Events are pooled: once fired (or popped canceled) the lane recycles
// the struct through its free list, so the steady-state scheduling path
// allocates nothing. Recycling bumps gen, which keeps stale Handles
// inert instead of canceling an unrelated reused event. The field order
// packs the struct into the allocator's 80-byte size class.
type event struct {
	at    time.Duration
	actor ActorID
	gen   uint32 // bumped on recycle; Handles remember the gen they saw
	index int32  // heap index
	// class 0: locally scheduled (a = per-actor sequence, b = 0).
	// class 1: delivery (a = sender actor, b = sender's send sequence).
	class    uint8
	canceled bool
	a, b     uint64
	label    string
	// Exactly one callback is set: fn by the sharded scheduling calls,
	// plain by Engine.Schedule. Two fields rather than one wrapped
	// closure keep both paths at zero allocations per event.
	fn    func(*ShardCtx)
	plain func()
	next  *event // free-list link while recycled
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.actor != o.actor {
		return e.actor < o.actor
	}
	if e.class != o.class {
		return e.class < o.class
	}
	if e.a != o.a {
		return e.a < o.a
	}
	return e.b < o.b
}

// eventHeap is an intrusive binary min-heap over the five-part event
// key. The sift loops are hand-rolled rather than container/heap so the
// per-event path has no interface-method dispatch; the index field
// supports O(1) removal when an actor migrates.
type eventHeap []*event

func (q *eventHeap) push(ev *event) {
	ev.index = int32(len(*q))
	*q = append(*q, ev)
	q.siftUp(len(*q) - 1)
}

func (q *eventHeap) pop() *event {
	return q.removeAt(0)
}

// removeAt unlinks the event at heap index i, restoring the heap
// property around the hole.
func (q *eventHeap) removeAt(i int) *event {
	s := *q
	n := len(s) - 1
	ev := s[i]
	if i != n {
		s[i] = s[n]
		s[i].index = int32(i)
	}
	s[n] = nil
	*q = s[:n]
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
	ev.index = -1
	return ev
}

func (q eventHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			return
		}
		q[i], q[p] = q[p], q[i]
		q[i].index = int32(i)
		q[p].index = int32(p)
		i = p
	}
}

func (q eventHeap) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			m = r
		}
		if !q[m].before(q[i]) {
			return
		}
		q[i], q[m] = q[m], q[i]
		q[i].index = int32(i)
		q[m].index = int32(m)
		i = m
	}
}

// migration is one staged actor handoff, applied at the next barrier.
type migration struct {
	actor ActorID
	to    int32
}

// lane is the unit of sequential execution, the event core both engines
// share: Engine is exactly one lane holding one actor, Sharded is one
// lane per shard. The queue and clock are touched only by the lane's
// owner — the Engine's caller, or under Sharded the lane's worker during
// a window and the coordinator at barriers; the inbox is the only
// concurrently written structure. The
// //iobt:barrier-only fields are enforced by the barrierstate analyzer:
// access requires an //iobt:barrier function or the lane's own mutex.
type lane struct {
	id int
	//iobt:barrier-only
	queue eventHeap
	//iobt:barrier-only
	now time.Duration

	inboxMu sync.Mutex
	inbox   []*event //iobt:barrier-only

	// inboxSpare is the drained inbox buffer from the previous barrier,
	// swapped back in at the next drain so the two buffers ping-pong and
	// steady-state staging never grows a fresh slice.
	inboxSpare []*event //iobt:barrier-only

	// migrations staged by this lane's own events during the window;
	// drained by the coordinator at the barrier.
	migrations []migration //iobt:barrier-only

	// free is the lane's recycled-event pool (linked through event.next).
	// It is owner-only like the queue: the owner allocates (Schedule, and
	// Send — senders draw from their own lane's pool) and frees (after
	// popping an event), and the coordinator allocates at barriers
	// (ScheduleActor). Events sent cross-shard drift between pools, which
	// is harmless: each pool is still touched by exactly one goroutine at
	// a time.
	free *event //iobt:barrier-only

	// probe, when set, observes every executed event. Under Sharded with
	// more than one shard it is called concurrently and must be safe for
	// concurrent use.
	probe func(shard int, actor ActorID, at time.Duration, label string)

	// processed, pending, and clamped are mutated by the owner and read
	// by observers (service watchdogs polling progress, aggregators over
	// lanes) at any time, hence atomic (mutex-free).
	processed atomic.Uint64
	pending   atomic.Int64
	clamped   atomic.Uint64

	ctx ShardCtx // reused per event; never escapes the owner
}

// allocEvent takes an event from the lane's pool (or the heap when the
// pool is dry). Callers fill every key field; apart from gen the struct
// arrives zeroed.
//
//iobt:barrier
//iobt:hot
func (ln *lane) allocEvent() *event {
	ev := ln.free
	if ev == nil {
		//iobt:allow hotalloc pool refill: each lane's free list warms to its peak in-flight event count, then the recycle-before-fire cycle (alloc-on-sender/free-on-executor across shards) reuses structs forever
		return &event{}
	}
	ln.free = ev.next
	ev.next = nil
	return ev
}

// freeEvent recycles a popped event into the lane's pool under a fresh
// generation, zeroing the rest so the pool never pins closures or
// labels past the firing.
//
//iobt:barrier
//iobt:hot
func (ln *lane) freeEvent(ev *event) {
	*ev = event{gen: ev.gen + 1, next: ln.free}
	ln.free = ev
}

// schedule queues a locally scheduled (class 0) event for actor at
// now+delay, keyed by the actor's schedule sequence, and returns it for
// the caller to attach its callback. A negative delay is an error in
// the model; it is clamped to zero so causality is preserved.
//
//iobt:barrier
//iobt:hot
func (ln *lane) schedule(now, delay time.Duration, actor ActorID, seq *uint64, label string) *event {
	if delay < 0 {
		delay = 0
	}
	ev := ln.allocEvent()
	ev.at = now + delay
	ev.actor = actor
	ev.a = *seq
	ev.label = label
	*seq++
	ln.queue.push(ev)
	ln.pending.Add(1)
	return ev
}

// step pops the lane's earliest event and executes it; the queue must
// be non-empty. It reports false when the event had been canceled
// (recycled unfired, clock untouched). floor is the causality guard:
// the time nothing popped may trail — the lane clock for Engine, the
// last barrier for Sharded (after an interrupted window a migrated-in
// event may trail the destination lane's local progress, but never the
// barrier).
//
//iobt:barrier
//iobt:hot
func (ln *lane) step(floor time.Duration) bool {
	ev := ln.queue.pop()
	ln.pending.Add(-1)
	if ev.canceled {
		ln.freeEvent(ev)
		return false
	}
	if ev.at < floor {
		panic(fmt.Sprintf("sim: lane %d event %q at %v scheduled before %v", ln.id, ev.label, ev.at, floor))
	}
	if ev.at > ln.now {
		ln.now = ev.at
	}
	ln.processed.Add(1)
	if ln.probe != nil {
		ln.probe(ln.id, ev.actor, ev.at, ev.label)
	}
	ln.ctx.actor = ev.actor
	ln.ctx.at = ev.at
	// Recycle before firing so a self-rescheduling event reuses its own
	// struct: the steady-state pool size is the peak queue depth.
	fn, plain := ev.fn, ev.plain
	ln.freeEvent(ev)
	if plain != nil {
		plain()
	} else {
		fn(&ln.ctx)
	}
	return true
}
