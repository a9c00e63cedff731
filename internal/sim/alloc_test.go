package sim

// Allocation regression tests for the pooled scheduling paths: the
// steady-state per-event cost of both engines must be zero allocations
// (ROADMAP item 3). These pin what the CI bench-gate measures, and the
// handle-generation tests pin the safety property that makes pooling
// sound: a Handle outliving its event must never touch the recycled
// struct's next occupant.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
)

// raceDetector is set by race_test.go: the race runtime allocates on
// its own account, so the rate pins skip under -race.
var raceDetector bool

// checkAllocRate runs run, which reports how many events it executed,
// and fails t unless the heap objects allocated per event are want. The
// rate is the exact runtime.MemStats.Mallocs delta over at least 10⁴
// events, as a ratio: one allocation in 64 events reads 0.016 here and
// 0 through AllocsPerRun, which divides an integer count by its runs.
// The 1/1000 tolerance covers a fixed per-run cost, such as starting
// the workers.
func checkAllocRate(t *testing.T, what string, want float64, run func() uint64) {
	t.Helper()
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := run()
	runtime.ReadMemStats(&after)
	if events < 10_000 {
		t.Fatalf("%s: %d events measured, want at least 10⁴", what, events)
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(events); math.Abs(got-want) > 1.0/1000 {
		t.Errorf("%s: %.4f heap objects per event over %d events, want %v", what, got, events, want)
	}
}

// TestStepAllocRate pins lane.step at 0 heap objects per event at 1 and
// 2 shards, through Run with live workers: ticks, sends across lanes,
// mailbox drains and barriers, at least 10⁵ events each.
func TestStepAllocRate(t *testing.T) {
	for _, shards := range []int{1, 2} {
		const actors = 16
		s := NewSharded(1, ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
		var tick, deliver func(c *ShardCtx)
		deliver = func(c *ShardCtx) {}
		tick = func(c *ShardCtx) {
			c.Schedule(time.Millisecond, "tick", tick)
			c.Send((c.Self()+1)%actors, time.Millisecond, "msg", deliver)
		}
		for i := 0; i < actors; i++ {
			s.AddActor(ActorID(i), i%shards)
			s.ScheduleActor(ActorID(i), time.Millisecond, "tick", tick)
		}
		if err := s.Run(20 * time.Millisecond); err != nil { // warm the pools and buffers
			t.Fatal(err)
		}
		checkAllocRate(t, fmt.Sprintf("%d shards", shards), 0, func() uint64 {
			start := s.Processed()
			if err := s.Run(4 * time.Second); err != nil {
				t.Fatal(err)
			}
			return s.Processed() - start
		})
	}
}

func TestEngineZeroAllocScheduling(t *testing.T) {
	eng := NewEngine(1)
	var tick func()
	tick = func() { eng.Schedule(time.Millisecond, "tick", tick) }
	for i := 0; i < 8; i++ {
		eng.Schedule(time.Millisecond, "tick", tick)
	}
	for i := 0; i < 100; i++ { // warm the pool and the tie-heap capacity
		eng.Step()
	}
	allocs := testing.AllocsPerRun(200, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocated %v per event, want 0", allocs)
	}
}

func TestShardedZeroAllocScheduling(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(string(rune('0'+shards)), func(t *testing.T) {
			const actors = 16
			s := NewSharded(1, ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
			var tick, deliver func(c *ShardCtx)
			deliver = func(c *ShardCtx) {}
			tick = func(c *ShardCtx) {
				c.Schedule(time.Millisecond, "tick", tick)
				c.Send((c.Self()+1)%actors, time.Millisecond, "msg", deliver)
			}
			for i := 0; i < actors; i++ {
				s.AddActor(ActorID(i), i%shards)
				s.ScheduleActor(ActorID(i), time.Millisecond, "tick", tick)
			}
			// Warm the pools, queues, and inbox ping-pong buffers.
			if err := s.Run(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Drive barrier-to-barrier windows inline (workers down, so
			// every lane executes on this goroutine): the measured loop is
			// exactly the scheduling path — pool alloc/free, queue push/pop,
			// mailbox staging and drain — at the full shard layout.
			ctx := context.Background()
			end := s.Now()
			allocs := testing.AllocsPerRun(100, func() {
				end += time.Millisecond
				s.runWindow(ctx, end, false)
				s.drainInboxes()
				s.applyMigrations()
				s.setNow(end)
			})
			if allocs != 0 {
				t.Fatalf("%d shards: steady-state window allocated %v, want 0", shards, allocs)
			}
			if s.Processed() == 0 {
				t.Fatal("no events processed")
			}
		})
	}
}

// TestShardedZeroAllocMigration pins the migration barrier at zero
// allocations: at 2 shards every actor hops lanes on every tick, so each
// barrier runs rehome on both lanes — one filter pass unlinking the
// movers and a push of each into the other lane's queue.
func TestShardedZeroAllocMigration(t *testing.T) {
	const actors = 16
	s := NewSharded(1, ShardedConfig{Shards: 2, Lookahead: time.Millisecond})
	var tick func(c *ShardCtx)
	tick = func(c *ShardCtx) {
		c.Schedule(time.Millisecond, "tick", tick)
		c.Schedule(3*time.Millisecond, "later", func(*ShardCtx) {})
		c.Migrate(1 - c.Shard())
	}
	for i := 0; i < actors; i++ {
		s.AddActor(ActorID(i), i%2)
		s.ScheduleActor(ActorID(i), time.Millisecond, "tick", tick)
	}
	if err := s.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	end := s.Now()
	window := func() {
		end += time.Millisecond
		s.runWindow(ctx, end, false)
		s.drainInboxes()
		s.applyMigrations()
		s.setNow(end)
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("steady-state migration barrier allocated %v, want 0", allocs)
	}
	before := s.actors[0].shard
	window()
	if after := s.actors[0].shard; after == before {
		t.Fatalf("actor 0 stayed on shard %d across a barrier: nothing migrated", after)
	}
}

func TestHandleStaleAfterRecycle(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	h1 := eng.Schedule(time.Millisecond, "a", func() { fired += 1 })
	if !eng.Step() {
		t.Fatal("step")
	}
	// The pool hands the recycled struct straight back.
	h2 := eng.Schedule(time.Millisecond, "b", func() { fired += 10 })
	if h1.ev != h2.ev {
		t.Fatal("expected the recycled event struct to be reused")
	}
	if h1.Pending() {
		t.Error("stale handle reports pending")
	}
	if h1.Cancel() {
		t.Error("stale handle canceled the recycled event")
	}
	if !h2.Pending() {
		t.Error("fresh handle should be pending")
	}
	if !eng.Step() {
		t.Fatal("step")
	}
	if fired != 11 {
		t.Fatalf("fired = %d, want 11 (stale handle must not block the reused event)", fired)
	}
}

func TestHandleCancelRecycles(t *testing.T) {
	eng := NewEngine(1)
	h := eng.Schedule(time.Millisecond, "a", func() { t.Error("canceled event fired") })
	if !h.Cancel() {
		t.Fatal("cancel")
	}
	eng.Schedule(2*time.Millisecond, "b", func() {})
	if !eng.Step() { // pops the canceled event, recycles it, fires "b"
		t.Fatal("step")
	}
	if h.Cancel() || h.Pending() {
		t.Error("handle to a popped canceled event must be inert")
	}
	if n := pending(&eng.ln); n != 0 {
		t.Fatalf("%d events queued, want 0", n)
	}
}
