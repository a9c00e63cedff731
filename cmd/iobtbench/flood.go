package main

// service_flood: E16's shape through service.New / SubmitScenario /
// Drain — the only workload with concurrency between missions, disk,
// admission back-pressure and crash recovery. Closed loop: two clients,
// each submitting its next mission only once the previous one was
// admitted, retrying a full queue after the advertised Retry-After.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/service"
	"iobt/internal/sim"
	"iobt/internal/verify"
)

const (
	floodClients = 2
	floodWorkers = 2
)

// floodScenarios copies floodScenario from internal/service/flood.go:
// small open-terrain worlds, alternating command models, reliable
// orders on every fourth mission.
func floodScenarios(seed int64, missions int) []verify.Scenario {
	scs := make([]verify.Scenario, missions)
	for i := range scs {
		sc := verify.Scenario{
			Seed:    seed + int64(i),
			Assets:  90,
			Size:    600,
			Terrain: "open",
			Command: "intent",
			Rate:    10,
			Horizon: 30 * time.Second,
		}
		if i%2 == 1 {
			sc.Command = "hierarchy"
			sc.Reliable = i%4 == 1
		}
		scs[i] = sc
	}
	return scs
}

func floodConfig(dir string, crashProb float64) service.Config {
	return service.Config{
		Workers:        floodWorkers,
		QueueDepth:     8,
		RetryAfterHint: 2 * time.Millisecond,
		// The 25ms default would make recovery time measure a sleep.
		BackoffBase: time.Millisecond,
		DataDir:     dir,
		Chaos:       service.ChaosConfig{CrashProb: crashProb},
	}
}

// floodClient is one closed-loop submitter. Each client owns its
// struct while it runs; the driver reads it after the join.
type floodClient struct {
	svc     *service.Service
	scs     []verify.Scenario
	next    *atomic.Int64
	rng     *sim.RNG
	lane    *lane // nil unless tracing
	submits []float64
	err     error
}

func (c *floodClient) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		i := int(c.next.Add(1)) - 1
		if i >= len(c.scs) {
			return
		}
		for {
			t0 := time.Now()
			_, err := c.svc.SubmitScenario(c.scs[i])
			t1 := time.Now()
			c.submits = append(c.submits, t1.Sub(t0).Seconds())
			if c.lane != nil {
				c.lane.add("service.submit", t0, t1)
			}
			if err == nil {
				break
			}
			var full *service.QueueFullError
			if !errors.As(err, &full) {
				c.err = err
				return
			}
			// The hint plus up to 50% seeded jitter, as service.Flood's
			// clients wait.
			wait := full.RetryAfter
			if q := int(wait / 2); q > 0 {
				wait += time.Duration(c.rng.Intn(q + 1))
			}
			time.Sleep(wait)
		}
	}
}

// floodRun is what one flood produced.
type floodRun struct {
	elapsed      float64
	tel          service.Telemetry
	fingerprints []uint64 // by scenario index
	crashed      []bool
	incomplete   []string
	firstEventMS []float64
	recoveryMS   []float64
	submitSec    []float64
	events       uint64
}

// flood pushes scs through a fresh service rooted at dir.
func flood(seed int64, scs []verify.Scenario, cfg service.Config, rec *recorder, parent int) (*floodRun, error) {
	svc := service.New(cfg)
	defer svc.Close()

	var next atomic.Int64
	var wg sync.WaitGroup
	clients := make([]*floodClient, floodClients)
	t0 := time.Now()
	for i := range clients {
		c := &floodClient{svc: svc, scs: scs, next: &next,
			rng: sim.NewRNG(seed).Derive(fmt.Sprintf("bench.client.%d", i))}
		if rec != nil {
			c.lane = rec.lane()
		}
		clients[i] = c
		wg.Add(1)
		go c.run(&wg)
	}
	wg.Wait()
	var drain int
	if rec != nil {
		drain = rec.begin("service.drain", parent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	err := svc.Drain(ctx)
	run := &floodRun{elapsed: time.Since(t0).Seconds()}
	if rec != nil {
		rec.end(drain)
	}
	for _, c := range clients {
		if rec != nil {
			rec.adopt(parent, c.lane)
		}
		run.submitSec = append(run.submitSec, c.submits...)
		if c.err != nil {
			return nil, fmt.Errorf("submit: %w", c.err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	run.tel = svc.Telemetry()
	run.fingerprints = make([]uint64, len(scs))
	run.crashed = make([]bool, len(scs))
	index := make(map[int64]int, len(scs)) // scenario seeds are distinct
	for i, sc := range scs {
		index[sc.Seed] = i
	}
	missions := svc.Missions()
	for _, m := range missions {
		i := index[m.Scenario.Seed]
		v := m.View()
		if st := m.State(); st != service.StateCompleted {
			run.incomplete = append(run.incomplete, fmt.Sprintf("mission %d (%s): %s: %s", i, m.ID, st, m.Reason()))
		}
		run.fingerprints[i] = m.Fingerprint()
		run.crashed[i] = v.Crashes > 0
		run.events += v.Events
		if d := m.FirstEventLatency(); d > 0 {
			run.firstEventMS = append(run.firstEventMS, d.Seconds()*1e3)
		}
		run.recoveryMS = append(run.recoveryMS, m.RecoveryTimes()...)
	}
	if n := len(missions); n != len(scs) {
		run.incomplete = append(run.incomplete, fmt.Sprintf("%d of %d missions admitted", n, len(scs)))
	}
	return run, nil
}

type floodInst struct {
	seed  int64
	scs   []verify.Scenario
	dir   string
	units int

	// Accumulated over the timed units: the latency samples behind the
	// service.* percentiles, and which missions ever crashed.
	firstEventMS, recoveryMS []float64
	crashed                  []bool
	fingerprints             []uint64 // the first unit's, the cross-unit reference
}

func setupFlood(e env) (instance, error) {
	missions := 80
	if e.quick {
		missions = 20
	}
	dir, err := os.MkdirTemp(e.tmp, "flood-")
	if err != nil {
		return nil, err
	}
	f := &floodInst{seed: e.seed, scs: floodScenarios(e.seed, missions), dir: dir, crashed: make([]bool, missions)}
	// Warm-up: a short chaos-free flood through a service of its own.
	if _, err := flood(f.seed, f.scs[:missions/5], floodConfig(f.unitDir(), 0), nil, -1); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// unitDir returns a fresh data directory: mission IDs restart with each
// service, so two floods must not share checkpoint files.
func (f *floodInst) unitDir() string {
	f.units++
	return filepath.Join(f.dir, fmt.Sprintf("u%d", f.units))
}

func (f *floodInst) unit(rec *recorder) outcome {
	out := outcome{ops: len(f.scs), counts: map[string]float64{}}
	root := -1
	if rec != nil {
		root = rec.begin("service.flood", -1)
		defer rec.end(root)
	}
	dir := f.unitDir()
	defer os.RemoveAll(dir)
	run, err := flood(f.seed, f.scs, floodConfig(dir, 0.4), rec, root)
	if err != nil {
		return out.fail("%v", err)
	}
	for _, p := range run.incomplete {
		out.failOne("%s", p)
	}
	if f.fingerprints == nil {
		f.fingerprints = run.fingerprints
	}
	for i, fp := range run.fingerprints {
		if fp != f.fingerprints[i] {
			out.failOne("mission %d: fingerprint %016x differs from the first unit's %016x", i, fp, f.fingerprints[i])
		}
		f.crashed[i] = f.crashed[i] || run.crashed[i]
	}
	f.firstEventMS = append(f.firstEventMS, run.firstEventMS...)
	f.recoveryMS = append(f.recoveryMS, run.recoveryMS...)

	tel := run.tel
	k := out.counts
	k["sim.events"] = float64(run.events)
	k["service.missions_per_s"] = ratio(float64(tel.Completed+tel.Degraded+tel.Failed+tel.Quarantined), run.elapsed)
	k["service.submit_us_p50"] = median(run.submitSec) * 1e6
	k["service.rejected_frac"] = ratio(float64(tel.RejectedFull), float64(tel.Submitted))
	k["service.crashes"] = float64(tel.Crashes)
	k["service.restarts"] = float64(tel.Restarts)
	k["service.recoveries"] = float64(tel.Recoveries)
	k["service.checkpoints_persisted"] = float64(tel.Checkpoints)
	k["service.checkpoint_bytes"] = float64(tel.CheckpointBytes)
	k["checkpoint.cuts"] = float64(tel.Checkpoints)
	k["checkpoint.cut_bytes"] = ratio(float64(tel.CheckpointBytes), float64(tel.Checkpoints))
	var digest uint64
	for _, fp := range run.fingerprints {
		digest = fold(digest, fp)
	}
	out.digest = digest
	out.notes = append(out.notes, fmt.Sprintf("digest=%016x completed=%d crashes=%d recoveries=%d rejected=%d missions_per_s=%.2f",
		digest, tel.Completed, tel.Crashes, tel.Recoveries, tel.RejectedFull, k["service.missions_per_s"]))
	return out
}

// verify reruns every scenario that ever crashed through a chaos-free
// service: a recovered mission must finish with the fingerprint of the
// same scenario left undisturbed.
func (f *floodInst) verify(_ *recorder, units []outcome) []string {
	problems := sameDigest(units)
	var idx []int
	var scs []verify.Scenario
	for i, c := range f.crashed {
		if c {
			idx = append(idx, i)
			scs = append(scs, f.scs[i])
		}
	}
	if len(scs) == 0 {
		return append(problems, "chaos injected no crash: recovery was not exercised")
	}
	dir := f.unitDir()
	defer os.RemoveAll(dir)
	ref, err := flood(f.seed, scs, floodConfig(dir, 0), nil, -1)
	if err != nil {
		return append(problems, fmt.Sprintf("chaos-free reference: %v", err))
	}
	for _, p := range ref.incomplete {
		problems = append(problems, "chaos-free reference: "+p)
	}
	for j, want := range ref.fingerprints {
		i := idx[j]
		if got := f.fingerprints[i]; got != want || want == 0 {
			problems = append(problems, fmt.Sprintf("mission %d crashed and recovered to fingerprint %016x; undisturbed it gives %016x", i, got, want))
		}
	}
	return problems
}

func (f *floodInst) layers(t traceInfo) map[string]float64 {
	m := t.out.counts
	m["sim.events_per_s"] = ratio(m["sim.events"], t.wall)
	m["service.first_event_p50_ms"] = percentile(f.firstEventMS, 0.50)
	m["service.first_event_p95_ms"] = percentile(f.firstEventMS, 0.95)
	m["service.recovery_p50_ms"] = percentile(f.recoveryMS, 0.50)

	// Flood scenarios alone, no service: what a mission costs before
	// admission, supervision and persistence are added.
	var stages [4][]float64
	solo := timeEach(8, func(i int) {
		sc := f.scs[i%len(f.scs)]
		lm, err := startMission(sc, nil, -1)
		if err != nil {
			return
		}
		defer lm.stop()
		if lm.run(sc.Horizon) != nil {
			return
		}
		for j, sec := range [4]float64{lm.newWorldSec, lm.synthesizeSec, lm.startSec, lm.runSec} {
			stages[j] = append(stages[j], sec)
		}
	})
	m["core.new_world_s"] = median(stages[0])
	m["core.synthesize_s"] = median(stages[1])
	m["core.start_s"] = median(stages[2])
	m["core.run_s"] = median(stages[3])
	m["service.mission_solo_ms"] = median(solo) * 1e3
	m["service.overhead_frac"] = 1 - ratio(float64(len(f.scs))*median(solo)/floodWorkers, t.wall)

	sc := f.scs[1%len(f.scs)]
	sc.Checkpoint = 10 * time.Second // the cadence the service applies to scenarios that set none
	m["mesh.network.refresh_ticks"] = float64(len(f.scs)) * refreshTicks(sc.Horizon)
	m["verify.checks"] = 0 // per-mission audits stay inside the service; priced by the probe below
	probeMission(sc, t.wall, m)
	probeStore(f.unitDir(), sc, m)
	return m
}

func (f *floodInst) close() { os.RemoveAll(f.dir) }

// probeStore prices checkpoint.Store on the flood's own disk: append,
// fsync, and recovery of a journal of real cuts.
func probeStore(dir string, sc verify.Scenario, m map[string]float64) {
	lm, err := startMission(sc, nil, -1)
	if err != nil {
		return
	}
	defer lm.stop()
	coord := lm.r.Checkpoints()
	if coord == nil || lm.run(5*time.Second) != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.ckpt")
	store, _, err := checkpoint.OpenStore(path)
	if err != nil {
		return
	}
	const cuts = 30
	appendSec := make([]float64, 0, cuts)
	syncSec := make([]float64, 0, cuts)
	for i := 1; i <= cuts; i++ {
		rec := checkpoint.Record{Seq: i, At: lm.w.Eng.Now(), Processed: lm.w.Eng.Processed(), Checkpoint: coord.Capture()}
		t0 := time.Now()
		if err := store.Append(rec); err != nil {
			break
		}
		t1 := time.Now()
		if err := store.Sync(); err != nil {
			break
		}
		appendSec = append(appendSec, t1.Sub(t0).Seconds())
		syncSec = append(syncSec, time.Since(t1).Seconds())
	}
	if err := store.Close(); err != nil {
		return
	}
	recoverSec := timeEach(5, func(int) { _, _ = checkpoint.RecoverStore(path) })
	m["checkpoint.store.append_us"] = median(appendSec) * 1e6
	m["checkpoint.store.sync_us"] = median(syncSec) * 1e6
	m["checkpoint.store.recover_ms"] = median(recoverSec) * 1e3
}
