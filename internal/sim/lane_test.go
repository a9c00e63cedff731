package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

// diffDriver is the scheduling surface the differential workload needs,
// implemented once over Engine and once over a 1-shard, 1-actor
// Sharded. Both are the same lane underneath, so the same workload must
// produce the same (time, label) sequence through either run loop.
type diffDriver interface {
	now() time.Duration
	after(delay time.Duration, label string, fn func()) (cancel func())
	every(interval time.Duration, label string, fn func()) (stop func())
	halt()
	// run advances to the absolute virtual time until (0: drain).
	run(ctx context.Context, until time.Duration) error
}

type engineDriver struct{ e *Engine }

func (d engineDriver) now() time.Duration { return d.e.Now() }
func (d engineDriver) halt()              { d.e.Stop() }
func (d engineDriver) after(delay time.Duration, label string, fn func()) func() {
	h := d.e.Schedule(delay, label, fn)
	return func() { h.Cancel() }
}
func (d engineDriver) every(interval time.Duration, label string, fn func()) func() {
	return d.e.Every(interval, label, fn).Stop
}
func (d engineDriver) run(ctx context.Context, until time.Duration) error {
	if until != 0 {
		until -= d.e.Now()
	}
	return d.e.RunContext(ctx, until)
}

// shardedDriver maps the same surface onto actor 0 of a 1-shard
// Sharded. Sharded has no cancellation, so a canceled event still pops
// but its callback is suppressed — invisible in the (time, label) log.
type shardedDriver struct {
	s   *Sharded
	cur *ShardCtx // the executing event's context; nil between runs
}

func (d *shardedDriver) now() time.Duration {
	if d.cur != nil {
		return d.cur.Now()
	}
	return d.s.Now()
}
func (d *shardedDriver) halt() { d.s.Stop() }
func (d *shardedDriver) after(delay time.Duration, label string, fn func()) func() {
	canceled := false
	wrapped := func(c *ShardCtx) {
		d.cur = c
		if !canceled {
			fn()
		}
		d.cur = nil
	}
	if d.cur != nil {
		d.cur.Schedule(delay, label, wrapped)
	} else {
		d.s.ScheduleActor(0, delay, label, wrapped)
	}
	return func() { canceled = true }
}
func (d *shardedDriver) every(interval time.Duration, label string, fn func()) func() {
	stopped := false
	var cancel func()
	var arm func()
	arm = func() {
		cancel = d.after(interval, label, func() {
			fn()
			if !stopped {
				arm()
			}
		})
	}
	arm()
	return func() { stopped = true; cancel() }
}
func (d *shardedDriver) run(ctx context.Context, until time.Duration) error {
	if until != 0 {
		until -= d.s.Now()
	}
	return d.s.RunContext(ctx, until)
}

// diffWorkload drives one seeded workload through d and returns its
// (time, label) log: equal-time FIFO ties, nested zero-delay
// scheduling, cancels of pending and already-fired handles, a
// self-stopping ticker, a horizon landing exactly on an event, Stop and
// ctx cancel from inside events, each followed by a resume.
func diffWorkload(t *testing.T, seed int64, d diffDriver) []string {
	t.Helper()
	var log []string
	rec := func(label string) { log = append(log, fmt.Sprintf("%v %s", d.now(), label)) }
	rng := NewRNG(seed)
	var cancels []func()
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()

	var spawn func(label string, depth int) func()
	spawn = func(label string, depth int) func() {
		return func() {
			rec(label)
			if depth == 0 {
				return
			}
			switch rng.Intn(5) {
			case 0: // nested zero-delay chain
				d.after(0, label+".z", spawn(label+".z", depth-1))
			case 1: // two children tied at one future instant
				at := time.Duration(rng.Intn(4)) * 10 * time.Millisecond
				d.after(at, label+".a", spawn(label+".a", depth-1))
				d.after(at, label+".b", spawn(label+".b", 0))
			case 2: // cancel something scheduled earlier (maybe already fired)
				if len(cancels) > 0 {
					cancels[rng.Intn(len(cancels))]()
				}
			case 3: // schedule, then cancel on the spot
				d.after(time.Millisecond, label+".dead", func() { rec(label + ".dead") })()
			}
		}
	}
	for i := 0; i < 60; i++ {
		// 10ms granularity over 400ms: many exact ties, many on the 10ms
		// window boundaries of the sharded run.
		delay := time.Duration(rng.Intn(40)) * 10 * time.Millisecond
		label := fmt.Sprintf("r%d", i)
		cancels = append(cancels, d.after(delay, label, spawn(label, 3)))
	}
	ticks := 0
	var stopTicker func()
	stopTicker = d.every(35*time.Millisecond, "tick", func() {
		ticks++
		rec("tick")
		if ticks == 7 {
			stopTicker()
		}
	})
	d.after(150*time.Millisecond, "edge", func() { rec("edge") })
	d.after(200*time.Millisecond, "stop", func() { rec("stop"); d.halt() })
	d.after(260*time.Millisecond, "cancel", func() { rec("cancel"); cancelCtx() })

	phase := func(name string, err, want error) {
		if !errors.Is(err, want) {
			t.Fatalf("%s: run returned %v, want %v", name, err, want)
		}
		log = append(log, "-- "+name)
	}
	phase("horizon", d.run(ctx, 150*time.Millisecond), nil)
	if d.now() != 150*time.Millisecond {
		t.Fatalf("clock after the horizon run = %v, want 150ms", d.now())
	}
	if !slices.Contains(log, "150ms edge") {
		t.Fatal("event exactly at the horizon did not fire within the run")
	}
	phase("stopped", d.run(ctx, 0), ErrStopped)
	phase("canceled", d.run(ctx, 0), context.Canceled)
	phase("drained", d.run(context.Background(), 0), nil)
	return log
}

// TestEngineMatchesOneLaneSharded is the differential behind "Engine is
// one lane": the same seeded workload through Engine's run loop and
// through Sharded's window loop at one shard and one actor must execute
// the identical (time, label) sequence, phase by phase.
func TestEngineMatchesOneLaneSharded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		eng := diffWorkload(t, seed, engineDriver{NewEngine(seed)})

		s := NewSharded(seed, ShardedConfig{Shards: 1, Lookahead: 10 * time.Millisecond})
		s.AddActor(0, 0)
		sh := diffWorkload(t, seed, &shardedDriver{s: s})

		if len(eng) < 100 {
			t.Fatalf("seed %d: degenerate workload, %d log lines", seed, len(eng))
		}
		if !reflect.DeepEqual(eng, sh) {
			for i := range eng {
				if i >= len(sh) || eng[i] != sh[i] {
					t.Fatalf("seed %d: logs diverge at line %d of %d/%d:\n engine:  %q\n sharded: %q",
						seed, i, len(eng), len(sh), eng[i], append(sh, "<end>")[i])
				}
			}
			t.Fatalf("seed %d: sharded log has %d extra lines", seed, len(sh)-len(eng))
		}
	}
}

// TestShardedReAddActorMovesPendingEvents: re-adding an actor to
// another shard must carry its queued events along (they used to stay
// on the old lane, invisible to later migrations), and every event
// still fires exactly once — on the new shard. The test inspects the
// lane queues before Run, when no worker exists.
//
//iobt:barrier
func TestShardedReAddActorMovesPendingEvents(t *testing.T) {
	s := NewSharded(1, ShardedConfig{Shards: 2})
	const perActor = 3
	fired := make([][]int, 2) // per actor: executing shard of each firing
	for a := ActorID(0); a < 2; a++ {
		s.AddActor(a, 0)
		for k := 1; k <= perActor; k++ {
			s.ScheduleActor(a, time.Duration(k)*70*time.Millisecond, "ev", func(c *ShardCtx) {
				fired[c.Self()] = append(fired[c.Self()], c.Shard())
			})
		}
	}
	s.AddActor(0, 1)
	if got := s.ActorShard(0); got != 1 {
		t.Fatalf("re-added actor on shard %d, want 1", got)
	}
	for i, ln := range s.lanes {
		for _, ev := range queued(&ln.queue) {
			if int(ev.actor) != 1-i {
				t.Errorf("lane %d still queues an event of actor %d", i, ev.actor)
			}
		}
		if p := ln.pending.Load(); p != perActor {
			t.Errorf("lane %d pending = %d, want %d", i, p, perActor)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 1, 1}, {0, 0, 0}}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("executing shards per actor = %v, want %v (each event once, on the owning shard)", fired, want)
	}
	if p := s.Pending(); p != 0 {
		t.Errorf("drained run reports %d pending events", p)
	}
}
