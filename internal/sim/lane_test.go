package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
	// run is RunContext: it advances by horizon (0: drain).
	run(ctx context.Context, horizon time.Duration) error
}

type engineDriver struct{ e *Engine }

func (d engineDriver) now() time.Duration { return d.e.Now() }
func (d engineDriver) after(delay time.Duration, label string, fn func()) func() {
	h := d.e.Schedule(delay, label, fn)
	return func() { h.Cancel() }
}
func (d engineDriver) every(interval time.Duration, label string, fn func()) func() {
	return d.e.Every(interval, label, fn).Stop
}
func (d engineDriver) run(ctx context.Context, horizon time.Duration) error {
	return d.e.RunContext(ctx, horizon)
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
func (d *shardedDriver) run(ctx context.Context, horizon time.Duration) error {
	return d.s.RunContext(ctx, horizon)
}

// diffWorkload drives one seeded workload through d and returns its
// (time, label) log: equal-time FIFO ties, nested zero-delay
// scheduling, cancels of pending and already-fired handles, a
// self-stopping ticker, a horizon landing exactly on an event, two ctx
// cancels from inside events, each followed by a resume, and a negative
// horizon. It fails t unless the log holds what the workload guarantees
// at every seed.
func diffWorkload(t *testing.T, seed int64, d diffDriver) []string {
	t.Helper()
	var log []string
	fired := map[string]int{}
	rec := func(label string) {
		fired[label]++
		log = append(log, fmt.Sprintf("%v %s", d.now(), label))
	}
	rng := NewRNG(seed)
	var cancels []func()
	killed := map[string]bool{} // roots cancelled before they fired
	stopCtx, stop := context.WithCancel(context.Background())
	defer stop()
	cancelCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

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
	const roots = 60
	for i := 0; i < roots; i++ {
		// 10ms granularity over 400ms: many exact ties, many on the 10ms
		// window boundaries of the sharded run.
		delay := time.Duration(rng.Intn(40)) * 10 * time.Millisecond
		label := fmt.Sprintf("r%d", i)
		kill := d.after(delay, label, spawn(label, 3))
		cancels = append(cancels, func() {
			if fired[label] == 0 {
				killed[label] = true
			}
			kill()
		})
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
	d.after(200*time.Millisecond, "stop", func() { rec("stop"); stop() })
	d.after(260*time.Millisecond, "cancel", func() { rec("cancel"); cancel() })

	phase := func(name string, err, want error) {
		if !errors.Is(err, want) {
			t.Fatalf("%s: run returned %v, want %v", name, err, want)
		}
		log = append(log, "-- "+name)
	}
	phase("horizon", d.run(stopCtx, 150*time.Millisecond), nil)
	if d.now() != 150*time.Millisecond {
		t.Fatalf("clock after the horizon run = %v, want 150ms", d.now())
	}
	if !slices.Contains(log, "150ms edge") {
		t.Fatal("event exactly at the horizon did not fire within the run")
	}
	phase("stopped", d.run(stopCtx, 0), context.Canceled)
	phase("canceled", d.run(cancelCtx, 0), context.Canceled)
	before := d.now()
	phase("negative horizon", d.run(context.Background(), -5*time.Minute), nil)
	if d.now() != before {
		t.Fatalf("a negative horizon moved the clock from %v to %v", before, d.now())
	}
	phase("drained", d.run(context.Background(), 0), nil)

	// What every seed guarantees. Each root that was not cancelled first
	// fired exactly once; the ticker stopped itself after 7 ticks; the
	// phases ran in order, each interrupting event is the last line
	// before its phase marker, and the negative horizon ran nothing.
	for i := 0; i < roots; i++ {
		label := fmt.Sprintf("r%d", i)
		want := 1
		if killed[label] {
			want = 0
		}
		if fired[label] != want {
			t.Fatalf("root %s fired %d times, want %d", label, fired[label], want)
		}
	}
	if fired["tick"] != 7 {
		t.Fatalf("%d ticks, want 7", fired["tick"])
	}
	var markers []string
	for _, line := range log {
		if strings.HasPrefix(line, "-- ") {
			markers = append(markers, line)
		}
	}
	if want := []string{"-- horizon", "-- stopped", "-- canceled", "-- negative horizon", "-- drained"}; !slices.Equal(markers, want) {
		t.Fatalf("phase markers %q, want %q", markers, want)
	}
	for _, seq := range [][2]string{
		{"200ms stop", "-- stopped"},
		{"260ms cancel", "-- canceled"},
		{"-- canceled", "-- negative horizon"},
	} {
		if i := slices.Index(log, seq[1]); i < 1 || log[i-1] != seq[0] {
			t.Fatalf("%q does not directly follow %q", seq[1], seq[0])
		}
	}
	// A root's first draw opens a .z chain with probability 1/5 and a
	// tie pair with 1/5, independently per root, so with n roots firing
	// one of the two is missing with probability at most 2·(4/5)^n. No
	// seed in 1–10⁵ fires fewer than 43 roots, so the odds are below
	// 2·(4/5)^43 ≈ 1.4e-4 a seed; none of those 10⁵ seeds fails here.
	var chain, tie bool
	for _, line := range log {
		chain = chain || strings.HasSuffix(line, ".z")
		if a, ok := strings.CutSuffix(line, ".a"); ok && slices.Contains(log, a+".b") {
			tie = true
		}
	}
	if !chain || !tie {
		t.Fatalf("workload degenerate: .z chain %v, .a/.b tie pair %v", chain, tie)
	}
	return log
}

// TestEngineMatchesOneLaneSharded is the differential behind "Engine is
// one lane": the same seeded workload through Engine's run loop and
// through Sharded's window loop at one shard and one actor must execute
// the identical (time, label) sequence, phase by phase.
func TestEngineMatchesOneLaneSharded(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		eng := diffWorkload(t, seed, engineDriver{NewEngine(seed)})

		s := NewSharded(seed, ShardedConfig{Shards: 1, Lookahead: 10 * time.Millisecond})
		s.AddActor(0, 0)
		sh := diffWorkload(t, seed, &shardedDriver{s: s})

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
	if got := s.actors[0].shard; got != 1 {
		t.Fatalf("re-added actor on shard %d, want 1", got)
	}
	for i, ln := range s.lanes {
		for _, ev := range queued(&ln.queue) {
			if int(ev.actor) != 1-i {
				t.Errorf("lane %d still queues an event of actor %d", i, ev.actor)
			}
		}
		if n := ln.queue.len(); n != perActor {
			t.Errorf("lane %d queues %d events, want %d", i, n, perActor)
		}
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 1, 1}, {0, 0, 0}}
	if !reflect.DeepEqual(fired, want) {
		t.Errorf("executing shards per actor = %v, want %v (each event once, on the owning shard)", fired, want)
	}
	if p := pending(s.lanes...); p != 0 {
		t.Errorf("drained run left %d events", p)
	}
}
