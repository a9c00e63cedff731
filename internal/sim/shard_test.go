package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// toyModel is a self-contained actor workload used to exercise the
// sharded engine: a population of actors that tick on random local
// timers, mix randomness into private state, exchange payloads via
// Send, and (optionally) migrate between shards. Every mutation touches
// only the executing actor's slot, and all randomness comes from
// per-actor streams, so the final state must be byte-identical for any
// shard count. Every tick and delivery checks execution order as it
// runs (ordered), so each toy run is also an ordering test.
type toyModel struct {
	t    testing.TB
	s    *Sharded
	rngs []*RNG

	// Per-actor slots: written only by the owning actor's events.
	state     []uint64
	ticks     []uint64
	sent      []uint64
	delivered []uint64
	last      []time.Duration // virtual time of the actor's previous checked event
}

type toyConfig struct {
	shards  int
	actors  int
	ticks   int
	migrate bool
	// control, when non-nil, runs as an extra actor-0 event at controlAt.
	control   func(*ShardCtx)
	controlAt time.Duration
}

func newToy(t testing.TB, seed int64, cfg toyConfig) *toyModel {
	s := NewSharded(seed, ShardedConfig{Shards: cfg.shards, Lookahead: 50 * time.Millisecond})
	m := &toyModel{
		t:         t,
		s:         s,
		rngs:      make([]*RNG, cfg.actors),
		state:     make([]uint64, cfg.actors),
		ticks:     make([]uint64, cfg.actors),
		sent:      make([]uint64, cfg.actors),
		delivered: make([]uint64, cfg.actors),
		last:      make([]time.Duration, cfg.actors),
	}
	for i := 0; i < cfg.actors; i++ {
		s.AddActor(ActorID(i), i%cfg.shards)
		m.rngs[i] = s.Stream(fmt.Sprintf("actor/%d", i))
	}
	if cfg.control != nil {
		s.ScheduleActor(0, cfg.controlAt, "control", cfg.control)
	}
	for i := 0; i < cfg.actors; i++ {
		delay := time.Duration(m.rngs[i].Intn(40)) * time.Millisecond
		s.ScheduleActor(ActorID(i), delay, "tick", m.tick(i, cfg.ticks, cfg.migrate))
	}
	return m
}

func (m *toyModel) tick(i, remaining int, migrate bool) func(*ShardCtx) {
	return func(c *ShardCtx) {
		m.ordered(c, "tick")
		r := m.rngs[i]
		m.ticks[i]++
		m.state[i] = m.state[i]*31 + uint64(r.Int63()) + uint64(c.Now())
		if r.Bool(0.4) {
			dst := ActorID(r.Intn(len(m.state)))
			payload := uint64(r.Int63())
			sentAt := c.Now()
			m.sent[i]++
			c.Send(dst, time.Duration(r.Intn(80))*time.Millisecond, "pkt", func(rc *ShardCtx) {
				m.ordered(rc, "pkt")
				j := rc.Self()
				if lat := rc.Now() - sentAt; lat < m.s.cfg.Lookahead {
					panic(fmt.Sprintf("delivery latency %v below lookahead", lat))
				}
				m.state[j] = m.state[j]*33 ^ (payload + uint64(rc.Now()))
				m.delivered[j]++
			})
		}
		if migrate && r.Bool(0.3) {
			// The draw happens unconditionally relative to the actor's own
			// schedule; only the target depends on the shard count, and the
			// target is a pure performance decision.
			c.Migrate(r.Intn(64) % m.s.cfg.Shards)
		}
		if remaining > 1 {
			c.Schedule(time.Duration(5+r.Intn(60))*time.Millisecond, "tick", m.tick(i, remaining-1, migrate))
		}
	}
}

// ordered fails the test if the executing event runs before the
// actor's previous event or before the barrier clock: no shard boundary,
// mailbox or migration may reorder what one actor observes. Workers call
// it concurrently; each touches only its own actor's slot of last.
func (m *toyModel) ordered(c *ShardCtx, label string) {
	i, now := c.Self(), c.Now()
	if now < m.last[i] {
		m.t.Errorf("%q on actor %d at %v after its event at %v", label, i, now, m.last[i])
	}
	if floor := m.s.Now(); now < floor {
		m.t.Errorf("%q on actor %d at %v trails the barrier at %v", label, i, now, floor)
	}
	m.last[i] = now
}

// digest folds all per-actor model state in actor-ID order.
func (m *toyModel) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	for i := range m.state {
		w(m.state[i])
		w(m.ticks[i])
		w(m.sent[i])
		w(m.delivered[i])
	}
	return h.Sum64()
}

func (m *toyModel) totals() (ticks, sent, delivered uint64) {
	for i := range m.state {
		ticks += m.ticks[i]
		sent += m.sent[i]
		delivered += m.delivered[i]
	}
	return
}

// TestShardedDeterminismAcrossShardCounts is the core contract: the
// same seed produces an identical final state for every shard count,
// with and without mobility-driven migration, and rerunning a
// configuration reproduces itself exactly.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	for _, migrate := range []bool{false, true} {
		name := "static"
		if migrate {
			name = "migrating"
		}
		t.Run(name, func(t *testing.T) {
			run := func(shards int) (uint64, uint64) {
				m := newToy(t, 4242, toyConfig{shards: shards, actors: 24, ticks: 12, migrate: migrate})
				if err := m.s.Run(0); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return m.digest(), m.s.Processed()
			}
			refDigest, refProcessed := run(1)
			for _, shards := range []int{2, 3, 4, 8} {
				d, p := run(shards)
				if d != refDigest {
					t.Errorf("shards=%d digest %016x, 1-shard reference %016x", shards, d, refDigest)
				}
				if p != refProcessed {
					t.Errorf("shards=%d processed %d, 1-shard reference %d", shards, p, refProcessed)
				}
			}
			again, _ := run(4)
			if again != refDigest {
				t.Errorf("4-shard rerun digest %016x, want %016x", again, refDigest)
			}
		})
	}
}

// TestShardedHorizonBoundaryDelivery pins the horizon edge case: a
// delivery landing exactly at the horizon must execute (or not)
// identically whether sender and receiver share a shard. All sends
// route through mailboxes precisely so this cannot diverge.
// TestShardedClampedSends pins the Send clamp accounting: every delay
// below Lookahead increments the counter exactly once, delays at or
// above the floor never do, and the total is shard-count invariant
// (clamping is a pure function of the model's stated delay).
func TestShardedClampedSends(t *testing.T) {
	s := NewSharded(7, ShardedConfig{Shards: 1, Lookahead: 100 * time.Millisecond})
	s.AddActor(0, 0)
	s.AddActor(1, 0)
	s.ScheduleActor(0, 0, "emit", func(c *ShardCtx) {
		c.Send(1, 10*time.Millisecond, "below", func(*ShardCtx) {})  // clamped
		c.Send(1, 99*time.Millisecond, "edge", func(*ShardCtx) {})   // clamped
		c.Send(1, 100*time.Millisecond, "floor", func(*ShardCtx) {}) // not clamped
		c.Send(1, 250*time.Millisecond, "above", func(*ShardCtx) {}) // not clamped
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.ClampedSends(); got != 2 {
		t.Errorf("ClampedSends = %d, want 2 (10ms and 99ms below the 100ms floor)", got)
	}

	// The toy model draws Send delays in [0, 80)ms against a 50ms
	// lookahead, so a healthy fraction clamps; the count must agree at
	// every shard count because the model's delays do.
	var want uint64
	for i, shards := range []int{1, 2, 4} {
		m := newToy(t, 99, toyConfig{shards: shards, actors: 48, ticks: 12})
		if err := m.s.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		got := m.s.ClampedSends()
		if i == 0 {
			want = got
			if want == 0 {
				t.Fatal("toy model produced no clamped sends; the invariance check is vacuous")
			}
			continue
		}
		if got != want {
			t.Errorf("shards=%d: ClampedSends = %d, want %d (shard-count invariant)", shards, got, want)
		}
	}
}

// TestShardCtxFrom: a delivery reports the actor that sent it at every
// shard count, and a locally scheduled event — by ScheduleActor, or by
// Schedule inside a delivery — reports its own actor.
func TestShardCtxFrom(t *testing.T) {
	const actors = 12
	for _, shards := range []int{1, 2, 4} {
		s := NewSharded(5, ShardedConfig{Shards: shards, Lookahead: 50 * time.Millisecond})
		for i := 0; i < actors; i++ {
			s.AddActor(ActorID(i), i%shards)
		}
		// Per receiving actor, touched only by that actor's events.
		delivered := make([]int, actors)
		local := func(what string) func(*ShardCtx) {
			return func(c *ShardCtx) {
				if c.From() != c.Self() {
					t.Errorf("shards=%d: %s on %d reports From %d", shards, what, c.Self(), c.From())
				}
			}
		}
		for i := 0; i < actors; i++ {
			src := ActorID(i)
			s.ScheduleActor(src, time.Duration(i)*time.Millisecond, "start", func(c *ShardCtx) {
				local("ScheduleActor event")(c)
				for k := 0; k < 3; k++ {
					dst := ActorID((i + 5*k) % actors) // k = 0 sends to itself
					c.Send(dst, 60*time.Millisecond, "msg", func(rc *ShardCtx) {
						delivered[rc.Self()]++
						if rc.From() != src {
							t.Errorf("shards=%d: delivery from %d to %d reports From %d", shards, src, rc.Self(), rc.From())
						}
						rc.Schedule(10*time.Millisecond, "follow-up", local("Schedule inside a delivery"))
					})
				}
			})
		}
		if err := s.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		var total int
		for _, d := range delivered {
			total += d
		}
		if total != 3*actors {
			t.Errorf("shards=%d: %d deliveries, want %d", shards, total, 3*actors)
		}
	}
}

// TestShardedHorizonBoundaryDelivery pins deliveries that land exactly
// at the horizon: like Engine's at-most-limit semantics they execute, at
// the horizon, and in the same order at every shard count. One is staged
// in an earlier window by actor 2, one is sent by actor 1 inside the
// final inclusive window. The staged one is already queued when the
// final window runs; the late one waits in the mailbox for the barrier
// after it, so the handler folds 2 then 1 (state 2*31+1). A same-lane
// shortcut past the mailbox would run the late delivery in key order,
// 1 first, but only when actors 0 and 1 share a lane (DESIGN.md §9,
// audit #17).
func TestShardedHorizonBoundaryDelivery(t *testing.T) {
	const look = 100 * time.Millisecond
	var processed uint64
	for _, shards := range []int{1, 2, 4} {
		s := NewSharded(7, ShardedConfig{Shards: shards, Lookahead: look})
		for id := ActorID(0); id < 3; id++ {
			s.AddActor(id, int(id)%shards)
		}
		var state uint64
		var at time.Duration
		fold := func(from uint64) func(*ShardCtx) {
			return func(c *ShardCtx) { state, at = state*31+from, c.Now() }
		}
		s.ScheduleActor(2, 0, "early", func(c *ShardCtx) { c.Send(0, 2*look, "staged", fold(2)) })
		s.ScheduleActor(1, look, "late", func(c *ShardCtx) { c.Send(0, look, "final", fold(1)) })
		if err := s.Run(2 * look); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if state != 2*31+1 || at != 2*look {
			t.Errorf("shards=%d: folded state %d at %v, want %d at %v (staged delivery first, then the final window's)",
				shards, state, at, 2*31+1, 2*look)
		}
		if shards == 1 {
			processed = s.Processed()
		} else if s.Processed() != processed {
			t.Errorf("shards=%d: processed %d events, 1 shard %d", shards, s.Processed(), processed)
		}
	}
}

// TestShardedOrdering runs the migrating toy model, whose every tick and
// delivery checks execution order (toyModel.ordered), at 1, 2, 4 and 8
// shards, and checks that the check saw every event it should have.
func TestShardedOrdering(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		m := newToy(t, 99, toyConfig{shards: shards, actors: 24, ticks: 10, migrate: true})
		if err := m.s.Run(0); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ticks, _, delivered := m.totals()
		if ticks != 24*10 || m.s.Processed() != ticks+delivered {
			t.Errorf("shards=%d: %d ticks and %d deliveries checked of %d events, want 240 ticks and every event",
				shards, ticks, delivered, m.s.Processed())
		}
	}
}

// TestShardedMigrationConservation: under heavy random migration no
// scheduled event is dropped or duplicated — every tick runs exactly
// once, every send is delivered exactly once, and the queues drain.
func TestShardedMigrationConservation(t *testing.T) {
	const actors, ticksEach = 32, 14
	m := newToy(t, 555, toyConfig{shards: 8, actors: actors, ticks: ticksEach, migrate: true})
	if err := m.s.Run(0); err != nil {
		t.Fatal(err)
	}
	ticks, sent, delivered := m.totals()
	if want := uint64(actors * ticksEach); ticks != want {
		t.Errorf("ticks executed %d, want exactly %d", ticks, want)
	}
	if sent != delivered {
		t.Errorf("sent %d != delivered %d: events dropped or duplicated in migration", sent, delivered)
	}
	if p := pending(m.s.lanes...); p != 0 {
		t.Errorf("drained run left %d events", p)
	}
	ref := newToy(t, 555, toyConfig{shards: 1, actors: actors, ticks: ticksEach, migrate: true})
	if err := ref.s.Run(0); err != nil {
		t.Fatal(err)
	}
	if d, r := m.digest(), ref.digest(); d != r {
		t.Errorf("migrating 8-shard digest %016x, 1-shard reference %016x", d, r)
	}
}

// TestShardedMassMigrationOneBarrier stages 2000 migrations in a single
// window — every actor leaves its lane, a third of them bounce straight
// back (A→B→A: last staged wins, nothing moves), and a tenth have
// nothing queued when they go — so the one-pass rehome sees a queue
// full of movers at once. At that barrier every lane must hold a valid
// queue of exactly its own actors' events, none dropped or duplicated;
// afterwards every event must run on its actor's new lane and the final
// state must match the 1-shard run, where Migrate is a no-op. The run
// stops at the first barrier (Run(lookahead)) so the lane queues are
// inspected with no worker up, then resumes.
func TestShardedMassMigrationOneBarrier(t *testing.T) {
	const actors, look = 1500, 50 * time.Millisecond
	run := func(shards int) (uint64, uint64) {
		s := NewSharded(77, ShardedConfig{Shards: shards, Lookahead: look})
		state := make([]uint64, actors)
		owner := func(i int) int {
			if i%3 == 0 {
				return i % shards
			}
			return (i%shards + 1) % shards
		}
		var misplaced atomic.Int64
		work := func(i int, salt uint64) func(*ShardCtx) {
			return func(c *ShardCtx) {
				if c.Shard() != owner(i) {
					misplaced.Add(1)
				}
				state[i] = state[i]*31 + uint64(c.Now()) + salt
			}
		}
		for i := 0; i < actors; i++ {
			s.AddActor(ActorID(i), i%shards)
		}
		for i := 0; i < actors; i++ {
			i := i
			if i%5 != 0 {
				for k := 1; k <= 3; k++ {
					s.ScheduleActor(ActorID(i), time.Duration(k)*60*time.Millisecond, "work", work(i, uint64(k)))
				}
			}
			s.ScheduleActor(ActorID(i), 10*time.Millisecond, "move", func(c *ShardCtx) {
				state[i]++
				c.Migrate((i%shards + 1) % shards)
				if i%3 == 0 {
					c.Migrate(i % shards)
				}
				// Even actors mail an odd one: the delivery is drained into
				// the recipient's old lane at this barrier and must move
				// with it. Actors divisible by ten get no mail and have no
				// work queued: they migrate with an empty queue.
				if i%2 == 0 {
					c.Send(ActorID((i+7)%actors), 120*time.Millisecond, "mail", work((i+7)%actors, uint64(i)))
				}
			})
		}
		// Every "move" fires at 10ms, inside the first window; nothing is
		// due at 50ms, so Run(look) ends right after that barrier.
		if err := s.Run(look); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < actors; i++ {
			if got := int(s.actors[i].shard); got != owner(i) {
				t.Errorf("shards=%d: actor %d on shard %d after the barrier, want %d", shards, i, got, owner(i))
			}
		}
		// Three work events for four actors in five, one mail for every
		// even actor.
		if got, want := pending(s.lanes...), actors*4/5*3+actors/2; got != want {
			t.Errorf("shards=%d: %d events queued after the barrier, want %d", shards, got, want)
		}
		for _, ln := range s.lanes {
			for _, ev := range queued(&ln.queue) {
				if int(s.actors[ev.actor].shard) != ln.id {
					t.Errorf("shards=%d lane %d holds an event of actor %d, owned by shard %d", shards, ln.id, ev.actor, s.actors[ev.actor].shard)
				}
			}
			if err := checkQueue(&ln.queue); err != nil {
				t.Fatalf("shards=%d lane %d: %v", shards, ln.id, err)
			}
		}
		for i := 0; i < actors; i += 10 {
			// Work for the actors that moved with nothing queued.
			s.ScheduleActor(ActorID(i), 30*time.Millisecond, "late", work(i, 9))
		}
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		if n := misplaced.Load(); n != 0 {
			t.Errorf("shards=%d: %d events ran on a lane that does not own their actor", shards, n)
		}
		if p := pending(s.lanes...); p != 0 {
			t.Errorf("shards=%d: drained run left %d events", shards, p)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range state {
			binary.BigEndian.PutUint64(buf[:], v)
			_, _ = h.Write(buf[:])
		}
		return h.Sum64(), s.Processed()
	}
	refDigest, refEvents := run(1)
	for _, shards := range []int{2, 4, 8} {
		if d, n := run(shards); d != refDigest || n != refEvents {
			t.Errorf("shards=%d: digest %016x after %d events, 1-shard reference %016x after %d", shards, d, n, refDigest, refEvents)
		}
	}
}

// TestShardedBelowBaseMigration drives the queue's one below-base
// insert. At 2 shards, lane 1 cancels the run mid-window at 245ms while
// lane 0 is held at a 205ms gate, so lane 1 has run past the 200ms
// barrier clock and actor 2 still has events at 210-230ms on lane 0.
// Re-adding actor 2 to shard 1 moves those events below lane 1's queue
// base; the resumed run must end with the digest and event count of the
// uninterrupted 1-shard run.
func TestShardedBelowBaseMigration(t *testing.T) {
	const mover = 2
	run := func(shards int, interrupt bool) *toyModel {
		m := newToy(t, 4711, toyConfig{shards: shards, actors: 8, ticks: 12})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		release := make(chan struct{})
		m.s.ScheduleActor(0, 205*time.Millisecond, "gate", func(*ShardCtx) {
			if interrupt {
				<-release
			}
		})
		m.s.ScheduleActor(1, 245*time.Millisecond, "cancel", func(c *ShardCtx) {
			if interrupt {
				cancel()
				close(release)
			}
		})
		for k := 1; k <= 3; k++ {
			salt := uint64(k)
			m.s.ScheduleActor(mover, 200*time.Millisecond+time.Duration(k)*10*time.Millisecond, "trail", func(c *ShardCtx) {
				m.state[mover] = m.state[mover]*37 + uint64(c.Now()) + salt
			})
		}
		if !interrupt {
			if err := m.s.Run(0); err != nil {
				t.Fatal(err)
			}
			return m
		}
		if err := m.s.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run returned %v, want context.Canceled", err)
		}
		dst := &m.s.lanes[1].queue
		if now, base := m.s.Now(), dst.base; now != 200*time.Millisecond || base != 245*time.Millisecond {
			t.Fatalf("stopped at barrier %v with lane 1 queue base %v, want 200ms and 245ms", now, base)
		}
		m.s.AddActor(mover, 1)
		if dst.base != 210*time.Millisecond {
			t.Fatalf("lane 1 queue base %v after the move, want 210ms (a below-base insert)", dst.base)
		}
		if err := checkQueue(dst); err != nil {
			t.Fatal(err)
		}
		if err := m.s.Run(0); err != nil {
			t.Fatalf("resume: %v", err)
		}
		return m
	}
	ref := run(1, false)
	got := run(2, true)
	if d, r := got.digest(), ref.digest(); d != r {
		t.Errorf("below-base migration digest %016x, 1-shard reference %016x", d, r)
	}
	if p, r := got.s.Processed(), ref.s.Processed(); p != r {
		t.Errorf("below-base migration processed %d, 1-shard reference %d", p, r)
	}
}

// TestShardedCancelResume: context cancellation from inside an event
// halts mid-window without losing or reordering anything — the run
// returns the cancellation cause, leaks no goroutines, and a resumed run
// converges to the uninterrupted result.
func TestShardedCancelResume(t *testing.T) {
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := newToy(t, 2026, toyConfig{
		shards: 4, actors: 24, ticks: 12, migrate: true,
		control: func(c *ShardCtx) { cancel() }, controlAt: 230 * time.Millisecond,
	})
	if err := m.s.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	waitNoLeak(t, base)

	if err := m.s.Run(0); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	ref := newToy(t, 2026, toyConfig{
		shards: 4, actors: 24, ticks: 12, migrate: true,
		control: func(c *ShardCtx) {}, controlAt: 230 * time.Millisecond,
	})
	if err := ref.s.Run(0); err != nil {
		t.Fatal(err)
	}
	if d, r := m.digest(), ref.digest(); d != r {
		t.Errorf("cancel+resume digest %016x, reference %016x", d, r)
	}
}

// TestShardedPanicIsolation: a panic in one shard worker surfaces as a
// ShardPanicError naming the shard, the other workers finish their
// window, and no goroutine leaks or deadlocks.
func TestShardedPanicIsolation(t *testing.T) {
	base := runtime.NumGoroutine()

	m := newToy(t, 808, toyConfig{
		shards: 4, actors: 24, ticks: 12,
		control:   func(c *ShardCtx) { panic("boom") },
		controlAt: 210 * time.Millisecond,
	})
	err := m.s.Run(0)
	var pe *ShardPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run returned %v, want *ShardPanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("panic value %v, want boom", pe.Value)
	}
	if want := int(m.s.actors[0].shard); pe.Shard != want {
		t.Errorf("panic attributed to shard %d, actor 0 lives on %d", pe.Shard, want)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	waitNoLeak(t, base)
}

// TestShardedCountersConcurrentReads hammers Now/Processed from observer
// goroutines while the shard workers run — the -race regression for the
// mutex-free counter path.
func TestShardedCountersConcurrentReads(t *testing.T) {
	m := newToy(t, 1717, toyConfig{shards: 4, actors: 24, ticks: 12, migrate: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Uint64
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = m.s.Processed()
				_ = m.s.Now()
				reads.Add(1)
			}
		}()
	}
	err := m.s.Run(0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 {
		t.Fatal("observer goroutines never read the counters")
	}
	if p := pending(m.s.lanes...); p != 0 {
		t.Errorf("drained run left %d events", p)
	}
}

// TestEngineCountersConcurrentReads is the same regression for the
// single-threaded Engine: Processed is documented safe from any
// goroutine while the loop runs.
func TestEngineCountersConcurrentReads(t *testing.T) {
	e := NewEngine(5)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 5000 {
			e.Schedule(time.Millisecond, "tick", tick)
		}
	}
	e.Schedule(0, "tick", tick)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Processed()
		}
	}()
	err := e.Run(0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Processed(); got != 5000 {
		t.Fatalf("processed %d, want 5000", got)
	}
	if p := pending(&e.ln); p != 0 {
		t.Fatalf("%d events left after drain", p)
	}
}

// waitNoLeak polls until the goroutine count returns to (near) the
// baseline, failing the test if worker goroutines outlive their run.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second) //iobt:allow detrand test-only leak-check timeout
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) { //iobt:allow detrand test-only leak-check timeout
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}
