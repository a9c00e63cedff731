package sim

import (
	"fmt"
	"math/bits"
	"slices"
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
	next  *event // bucket link while queued, free-list link while recycled
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

// eventQueue is the lane's priority queue: a radix heap on the event
// time, with a small binary heap for the events at its base.
//
// base never exceeds any queued time. Bucket k (1..64, stored at index
// k-1) holds the events whose at first differs from base at bit k-1, so
// every event in bucket k is earlier than every event in bucket k+1.
// A bucket is a list threaded through event.next (a queued event is
// never on the free list), least[k-1] is its earliest time, and bit k-1
// of occ says it is non-empty, so the lowest bucket is one
// TrailingZeros64. Events at base sit in ties, ordered by the full
// five-part key, so the pop sequence is the strict key order.
//
// A pop that finds ties empty moves base up to the lowest bucket's least
// and redistributes that one bucket into the buckets below it, which are
// empty: the lists need no storage beyond the events themselves, and
// each event descends at most once per bit. minAt reads the next time
// without moving base, so a barrier's deliveries (all later than
// anything popped) never land below it.
type eventQueue struct {
	base  time.Duration
	n     int
	occ   uint64
	ties  []*event
	head  [64]*event
	least [64]time.Duration
}

func (q *eventQueue) len() int { return q.n }

// minAt returns the earliest queued time, or false when empty.
func (q *eventQueue) minAt() (time.Duration, bool) {
	if len(q.ties) > 0 {
		return q.base, true
	}
	if q.occ == 0 {
		return 0, false
	}
	return q.least[bits.TrailingZeros64(q.occ)], true
}

func (q *eventQueue) push(ev *event) {
	q.n++
	if ev.at < q.base {
		q.rebase(ev.at)
	}
	if ev.at == q.base {
		q.pushTie(ev)
		return
	}
	q.link(ev)
}

// pop removes and returns the earliest event; the queue must be
// non-empty. A lowest bucket holding one event holds the unique
// earliest one, which is returned without passing through ties.
func (q *eventQueue) pop() *event {
	q.n--
	if len(q.ties) == 0 {
		i := bits.TrailingZeros64(q.occ)
		if ev := q.head[i]; ev.next == nil {
			q.head[i] = nil
			q.occ &^= 1 << i
			q.base = ev.at
			return ev
		}
		q.refill(i)
	}
	return q.popTie()
}

// link files ev, later than base, into its bucket.
func (q *eventQueue) link(ev *event) {
	i := bits.Len64(uint64(ev.at^q.base)) - 1
	bit := uint64(1) << i
	if q.occ&bit == 0 || ev.at < q.least[i] {
		q.least[i] = ev.at
	}
	q.occ |= bit
	ev.next = q.head[i]
	q.head[i] = ev
}

// refill moves base up to the earliest queued time and empties the
// lowest bucket, i, into ties and the (empty) buckets below it. The
// list holds its events in reverse insertion order, and insertion order
// is mostly ascending in key (a drained mailbox, ticks rescheduled in
// pop order), so the new ties are reversed before the heap is built
// bottom-up: on ascending input that costs one comparison or two per
// node, where pushing them one by one would sift each to the root.
func (q *eventQueue) refill(i int) {
	ev := q.head[i]
	q.head[i] = nil
	q.occ &^= 1 << i
	q.base = q.least[i]
	for ev != nil {
		next := ev.next
		if ev.at == q.base {
			q.ties = append(q.ties, ev)
		} else {
			q.link(ev)
		}
		ev = next
	}
	slices.Reverse(q.ties)
	q.heapify()
}

// rebase lowers base to t, earlier than everything queued. With d the
// highest bit where t and the old base differ, the events at the old
// base and in the buckets below d all move into bucket d+1 (which is
// empty, since the old base has bit d set and t does not); the buckets
// above keep their meaning. It relinks events and allocates nothing.
// Only a resumed run after an interrupted window inserts below base.
func (q *eventQueue) rebase(t time.Duration) {
	d := bits.Len64(uint64(t^q.base)) - 1
	low := q.occ & (1<<d - 1)
	least := q.base
	if len(q.ties) == 0 && low != 0 {
		least = q.least[bits.TrailingZeros64(low)]
	}
	var moved *event
	for _, ev := range q.ties {
		ev.next = moved
		moved = ev
	}
	clear(q.ties)
	q.ties = q.ties[:0]
	for m := low; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		for ev := q.head[j]; ev != nil; {
			next := ev.next
			ev.next = moved
			moved = ev
			ev = next
		}
		q.head[j] = nil
	}
	q.occ &^= low
	if moved != nil {
		q.head[d] = moved
		q.least[d] = least
		q.occ |= 1 << d
	}
	q.base = t
}

// filter unlinks every queued event drop selects and returns them as a
// list threaded through next. One pass over ties and each occupied
// bucket; nothing is allocated.
func (q *eventQueue) filter(drop func(*event) bool) (out *event) {
	n := 0
	kept := q.ties[:0]
	for _, ev := range q.ties {
		if drop(ev) {
			ev.next = out
			out = ev
			n++
		} else {
			kept = append(kept, ev)
		}
	}
	clear(q.ties[len(kept):])
	q.ties = kept
	q.heapify()
	for m := q.occ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		var keep *event
		var least time.Duration
		for ev := q.head[i]; ev != nil; {
			next := ev.next
			if drop(ev) {
				ev.next = out
				out = ev
				n++
			} else {
				if keep == nil || ev.at < least {
					least = ev.at
				}
				ev.next = keep
				keep = ev
			}
			ev = next
		}
		q.head[i] = keep
		if keep == nil {
			q.occ &^= 1 << i
		} else {
			q.least[i] = least
		}
	}
	q.n -= n
	return out
}

// pushTie, popTie, heapify and siftDown keep ties a binary min-heap on
// the event key, hand-rolled so the per-event path has no interface
// dispatch.
func (q *eventQueue) pushTie(ev *event) {
	q.ties = append(q.ties, ev)
	h := q.ties
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) popTie() *event {
	h := q.ties
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = nil
	q.ties = h[:n]
	q.siftDown(0)
	return ev
}

func (q *eventQueue) heapify() {
	for i := len(q.ties)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

func (q *eventQueue) siftDown(i int) {
	h := q.ties
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
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
// concurrently written structure, under inboxMu. The race job holds
// the threads to that, and the differential tests hold the one rule no
// race shows: a send reaches even its own lane through the mailbox.
type lane struct {
	id    int
	queue eventQueue
	now   time.Duration

	inboxMu sync.Mutex
	inbox   []*event

	// inboxSpare is the drained inbox buffer from the previous barrier,
	// swapped back in at the next drain so the two buffers ping-pong and
	// steady-state staging never grows a fresh slice.
	inboxSpare []*event

	// migrations staged by this lane's own events during the window;
	// drained by the coordinator at the barrier.
	migrations []migration

	// free is the lane's recycled-event pool (linked through event.next).
	// It is owner-only like the queue: the owner allocates (Schedule, and
	// Send — senders draw from their own lane's pool) and frees (after
	// popping an event), and the caller allocates between runs
	// (ScheduleActor). Events sent cross-shard drift between pools, which
	// is harmless: each pool is still touched by exactly one goroutine at
	// a time.
	free *event

	// processed and clamped are mutated by the owner and read by
	// observers (service watchdogs polling progress, aggregators over
	// lanes) at any time, hence atomic (mutex-free).
	processed atomic.Uint64
	clamped   atomic.Uint64

	ctx ShardCtx // reused per event; never escapes the owner
}

// allocEvent takes an event from the lane's pool (or the heap when the
// pool is dry). Callers fill every key field; apart from gen the struct
// arrives zeroed.
//
//iobt:hot
func (ln *lane) allocEvent() *event {
	ev := ln.free
	if ev == nil {
		// Pool refill: each lane's free list warms to its peak in-flight
		// event count, then recycle-before-fire reuses the structs.
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
//iobt:hot
func (ln *lane) step(floor time.Duration) bool {
	ev := ln.queue.pop()
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
	ln.ctx.actor = ev.actor
	ln.ctx.from = ev.actor
	if ev.class == 1 {
		ln.ctx.from = ActorID(ev.a)
	}
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
