package main

// engine_storm: a toy actor model straight on sim.Sharded, so nothing
// but the engine (heap, mailbox, barrier, migration) does the work.
// One unit runs the model at 1 shard and again at 2 and compares the
// digests; its wall time is the sum of both passes, so an engine change
// that buys the parallel case at the sequential case's cost, or the
// reverse, shows in one number.

import (
	"fmt"
	"time"

	"iobt/internal/sim"
)

const (
	stormTick      = 50 * time.Millisecond
	stormSendDelay = 150 * time.Millisecond // above the 100ms lookahead: never clamped
	stormSendEvery = 8
	stormMoveEvery = 64
)

// stormActor is one actor's state, touched only by that actor's events.
//
//iobt:actor-state
type stormActor struct {
	rng    *sim.RNG
	ticks  uint64
	digest uint64
	sends  uint64
	moves  uint64

	// Built once at set-up and rescheduled by value, as
	// cmd/benchtab/micro.go does, so the steady state allocates nothing.
	tickFn func(*sim.ShardCtx)
	recvFn func(*sim.ShardCtx) // delivered to a peer: folds this actor's ID into the peer's digest
}

// stormRun is the run context shared by every event: written at
// set-up, read-only while the engine runs.
//
//iobt:frozen
type stormRun struct {
	actors []*stormActor
	shards int
}

// fold is an order-sensitive digest step (FNV-1a over one word).
func fold(d, v uint64) uint64 { return (d ^ v) * 1099511628211 }

func (r *stormRun) tick(a *stormActor) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		a.ticks++
		if a.ticks%stormSendEvery == 0 {
			a.sends++
			peer := sim.ActorID(a.rng.Intn(len(r.actors)))
			c.Send(peer, stormSendDelay, "storm.msg", a.recvFn)
		}
		if a.ticks%stormMoveEvery == 0 {
			a.moves++
			c.Migrate((c.Shard() + 1) % r.shards)
		}
		c.Schedule(stormTick, "storm.tick", a.tickFn)
	}
}

func (r *stormRun) receive(from sim.ActorID) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		m := r.actors[c.Self()]
		m.digest = fold(m.digest, uint64(from))
	}
}

// stormPass is the result of one pass of the model at one shard count.
type stormPass struct {
	digest       uint64
	events       uint64
	clamped      uint64
	sends, moves uint64
	runSec       float64 // Run alone, without building the model
}

// runStorm builds the model on a fresh engine and runs it to horizon.
func runStorm(seed int64, shards, actors int, horizon time.Duration) (stormPass, error) {
	eng := sim.NewSharded(seed, sim.ShardedConfig{Shards: shards, Lookahead: 100 * time.Millisecond})
	run := &stormRun{actors: make([]*stormActor, actors), shards: shards}
	for i := range run.actors {
		a := &stormActor{rng: eng.Stream(fmt.Sprintf("storm/%d", i))}
		a.tickFn = run.tick(a)
		a.recvFn = run.receive(sim.ActorID(i))
		run.actors[i] = a
		eng.AddActor(sim.ActorID(i), i%shards)
	}
	for i, a := range run.actors {
		// A per-actor phase spreads the ticks over the window instead of
		// stacking 10^4 events on one instant.
		phase := time.Duration(a.rng.Intn(int(stormTick/time.Microsecond))) * time.Microsecond
		eng.ScheduleActor(sim.ActorID(i), phase, "storm.tick", a.tickFn)
	}
	t1 := time.Now()
	if err := eng.Run(horizon); err != nil {
		return stormPass{}, err
	}
	p := stormPass{
		events:  eng.Processed(),
		clamped: eng.ClampedSends(),
		runSec:  time.Since(t1).Seconds(),
	}
	for _, a := range run.actors {
		p.digest = fold(fold(p.digest, a.digest), a.ticks)
		p.sends += a.sends
		p.moves += a.moves
	}
	return p, nil
}

type stormInst struct {
	seed    int64
	actors  int
	horizon time.Duration
}

func setupStorm(e env) (instance, error) {
	s := &stormInst{seed: e.seed, actors: 10000, horizon: 8 * time.Second}
	if e.quick {
		s.actors = 2000
	}
	// Warm-up: both shard counts over a short horizon, so the heap, the
	// event pools and the worker start-up path are paid before timing.
	for shards := 1; shards <= 2; shards++ {
		if _, err := runStorm(s.seed, shards, s.actors, s.horizon/8); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *stormInst) unit(rec *recorder) outcome {
	out := outcome{ops: 1, counts: map[string]float64{}}
	var pass [2]stormPass
	for i := range pass {
		var id int
		if rec != nil {
			id = rec.begin(fmt.Sprintf("sim.sharded%d", i+1), -1)
		}
		p, err := runStorm(s.seed, i+1, s.actors, s.horizon)
		if rec != nil {
			rec.end(id)
		}
		if err != nil {
			return out.fail("shards=%d: %v", i+1, err)
		}
		pass[i] = p
	}
	one, two := pass[0], pass[1]
	out.digest = one.digest
	if one.digest != two.digest || one.events != two.events {
		out.fail("1-shard digest %016x (%d events) != 2-shard %016x (%d events)",
			one.digest, one.events, two.digest, two.events)
	}
	out.counts["sim.sharded1.ns_per_event"] = ratio(one.runSec*1e9, float64(one.events))
	out.counts["sim.sharded2.ns_per_event"] = ratio(two.runSec*1e9, float64(two.events))
	out.counts["sim.sharded.speedup_2v1"] = ratio(one.runSec, two.runSec)
	out.counts["sim.events"] = float64(one.events + two.events)
	out.counts["sim.events_per_s"] = ratio(float64(one.events+two.events), one.runSec+two.runSec)
	out.counts["sim.clamped_sends"] = float64(one.clamped + two.clamped)
	out.counts["sim.storm.sends"] = float64(one.sends + two.sends)
	out.counts["sim.storm.migrations"] = float64(two.moves) // a 1-shard Migrate is a no-op
	return out
}

// verify: every unit compared its own two passes; across units the
// digest must not move either.
func (s *stormInst) verify(_ *recorder, units []outcome) []string { return sameDigest(units) }

func (s *stormInst) layers(t traceInfo) map[string]float64 {
	m := t.out.counts
	m["sim.engine.ns_per_event"] = probeEngineTick(s.actors, s.horizon/4)
	return m
}

func (s *stormInst) close() {}

// probeEngineTick prices the same self-rescheduling 50ms tick on the
// sequential sim.Engine: the number ROADMAP item 1 sets against
// sim.sharded1.ns_per_event.
func probeEngineTick(actors int, horizon time.Duration) float64 {
	eng := sim.NewEngine(1)
	ticks := make([]func(), actors)
	for i := range ticks {
		i := i
		ticks[i] = func() { eng.Schedule(stormTick, "storm.tick", ticks[i]) }
		eng.Schedule(time.Duration(i)*time.Microsecond, "storm.tick", ticks[i])
	}
	t0 := time.Now()
	if err := eng.Run(horizon); err != nil {
		return 0
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(eng.Processed()))
}
