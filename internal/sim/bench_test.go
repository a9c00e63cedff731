package sim

// Scheduling-path micro-benchmarks: the per-event cost of the
// sequential and sharded engines. These are the numbers the hot-path
// campaign (ROADMAP item 3) gates on — allocs/op on the steady-state
// scheduling path must be zero, and the benchtab `-bench` table and CI
// bench-gate run the same loops through testing.Benchmark.

import (
	"testing"
	"time"
)

// BenchmarkEngineEvent measures one steady-state Schedule+Step cycle:
// a self-rescheduling event, so every Step pops one event and pushes
// its successor. The closure is created once outside the loop; the
// per-op cost is purely the engine's own bookkeeping.
func BenchmarkEngineEvent(b *testing.B) {
	eng := NewEngine(1)
	var tick func()
	tick = func() { eng.Schedule(time.Millisecond, "tick", tick) }
	eng.Schedule(time.Millisecond, "tick", tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineEvent64 is BenchmarkShardedLocal1's shape on Engine:
// 64 self-rescheduling events on the same millisecond, so the two
// engines are compared at the same queue depth and the same ties.
func BenchmarkEngineEvent64(b *testing.B) {
	eng := NewEngine(1)
	var tick func()
	tick = func() { eng.Schedule(time.Millisecond, "tick", tick) }
	for i := 0; i < benchActors; i++ {
		eng.Schedule(time.Millisecond, "tick", tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel exercises the Schedule+Cancel path:
// handles must stay valid (and refuse to fire) without holding the
// event alive.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eng.Schedule(time.Millisecond, "x", fn)
		h.Cancel()
		eng.Step()
	}
}

const benchActors = 64

// shardedTickBench builds a Sharded engine with benchActors
// self-rescheduling actors (one local event per actor per virtual
// millisecond) and runs ~b.N events, so ns/op and allocs/op read as
// per-event costs with barrier overhead amortized across the window.
func shardedTickBench(b *testing.B, shards int) {
	b.Helper()
	s := NewSharded(1, ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
	var tick func(c *ShardCtx)
	tick = func(c *ShardCtx) { c.Schedule(time.Millisecond, "tick", tick) }
	for i := 0; i < benchActors; i++ {
		s.AddActor(ActorID(i), i%shards)
		s.ScheduleActor(ActorID(i), time.Millisecond, "tick", tick)
	}
	horizon := time.Duration((b.N+benchActors-1)/benchActors) * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s.Processed() == 0 {
		b.Fatal("no events processed")
	}
}

func BenchmarkShardedLocal1(b *testing.B) { shardedTickBench(b, 1) }

// BenchmarkShardedLocal1_10k is engine_storm's queue on one shard: 10^4
// actors ticking every 50ms from per-actor phases, so the queue holds
// 10^4 events spread over the tick instead of 64 on one instant.
func BenchmarkShardedLocal1_10k(b *testing.B) {
	const actors, period = 10000, 50 * time.Millisecond
	s := NewSharded(1, ShardedConfig{Shards: 1, Lookahead: 100 * time.Millisecond})
	var tick func(c *ShardCtx)
	tick = func(c *ShardCtx) { c.Schedule(period, "tick", tick) }
	phases := NewRNG(1)
	for i := 0; i < actors; i++ {
		s.AddActor(ActorID(i), 0)
		s.ScheduleActor(ActorID(i), time.Duration(phases.Intn(int(period/time.Microsecond)))*time.Microsecond, "tick", tick)
	}
	horizon := time.Duration((b.N+actors-1)/actors) * period
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s.Processed() == 0 {
		b.Fatal("no events processed")
	}
}
func BenchmarkShardedLocal2(b *testing.B) { shardedTickBench(b, 2) }
func BenchmarkShardedLocal4(b *testing.B) { shardedTickBench(b, 4) }
func BenchmarkShardedLocal8(b *testing.B) { shardedTickBench(b, 8) }

// shardedSendBench is the cross-actor counterpart: every actor relays
// a delivery to its ring successor, so each event goes through Send,
// the destination mailbox, and the barrier drain — the full
// cross-shard path.
func shardedSendBench(b *testing.B, shards int) {
	b.Helper()
	s := NewSharded(1, ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
	var relay func(c *ShardCtx)
	relay = func(c *ShardCtx) {
		c.Send((c.Self()+1)%benchActors, time.Millisecond, "msg", relay)
	}
	for i := 0; i < benchActors; i++ {
		s.AddActor(ActorID(i), i%shards)
	}
	for i := 0; i < benchActors; i++ {
		s.ScheduleActor(ActorID(i), time.Millisecond, "seed", relay)
	}
	horizon := time.Duration((b.N+benchActors-1)/benchActors) * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if s.Processed() == 0 {
		b.Fatal("no events processed")
	}
}

func BenchmarkShardedSend1(b *testing.B) { shardedSendBench(b, 1) }
func BenchmarkShardedSend2(b *testing.B) { shardedSendBench(b, 2) }
func BenchmarkShardedSend4(b *testing.B) { shardedSendBench(b, 4) }
func BenchmarkShardedSend8(b *testing.B) { shardedSendBench(b, 8) }
