package main

// mission_classic: one E14-style mission on the sequential stack
// (sim.Engine, mesh.Network, core.Runtime), built the way verify.Run
// builds it. It is the sequential half of every duplicated pair in
// ROADMAP item 1: the guard that collapsing sim.Engine into
// sim.Sharded(1) costs nothing at experiment level.

import (
	"fmt"
	"time"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/track"
	"iobt/internal/verify"
)

// classicScenario is the mission_classic input for a seed.
func classicScenario(seed int64, quick bool) verify.Scenario {
	sc := verify.Scenario{
		Seed:       seed,
		Assets:     1000,
		Size:       1500,
		Terrain:    "open",
		Command:    "hierarchy",
		Reliable:   true,
		Degrade:    true,
		Checkpoint: 10 * time.Second,
		Rate:       30,
		Horizon:    2 * time.Minute,
		Track:      true,
	}
	if quick {
		sc.Assets, sc.Size = 250, 750
	}
	sc.Plan = fault.StandardPlan(sc.Size)
	return sc
}

// liveMission is a built and started mission with its invariant
// registry, ready to run to the horizon.
type liveMission struct {
	w       *core.World
	r       *core.Runtime
	reg     *verify.Registry
	tracker *track.Tracker

	rec    *recorder
	parent int   // the unit's root span when tracing
	inner  *lane // spans recorded by callbacks while the engine runs

	newWorldSec, synthesizeSec, startSec, runSec float64
}

// stage times fn as one span of the mission's root and returns seconds.
func (m *liveMission) stage(name string, fn func()) float64 {
	var id int
	if m.rec != nil {
		id = m.rec.begin(name, m.parent)
	}
	t0 := time.Now()
	fn()
	sec := time.Since(t0).Seconds()
	if m.rec != nil {
		m.rec.end(id)
	}
	return sec
}

// startMission builds sc's world and mission exactly as verify.Run and
// the service's runAttempt do, timing each public call. With a recorder
// the invariant checks and the tracker feed — the callbacks this file
// supplies — record spans of their own.
func startMission(sc verify.Scenario, rec *recorder, parent int) (*liveMission, error) {
	m := &liveMission{rec: rec, parent: parent}
	if rec != nil {
		m.inner = rec.lane()
	}

	m.newWorldSec = m.stage("core.new_world", func() {
		m.w = core.NewWorld(core.WorldConfig{Seed: sc.Seed, Terrain: geo.NewOpenTerrain(sc.Size, sc.Size), Assets: sc.Assets})
	})
	w := m.w

	pad := sc.Size / 5
	mis := core.DefaultMission(geo.NewRect(geo.Point{X: pad, Y: pad}, geo.Point{X: sc.Size - pad, Y: sc.Size - pad}))
	mis.Goal.CoverageFrac = 0.4
	mis.IncidentsPerMin = sc.Rate
	mis.Command = core.CommandIntent
	if sc.Command == "hierarchy" {
		mis.Command = core.CommandHierarchy
	}
	mis.ReliableOrders = sc.Reliable
	mis.Degradation = sc.Degrade
	mis.CheckpointEvery = sc.Checkpoint
	mis.TrustAudit = true
	m.r = core.NewRuntime(w, mis)
	r := m.r

	if sc.Track {
		m.tracker = track.NewTracker(track.Config{})
		r.AttachTracker(m.tracker)
		w.Eng.Every(time.Second, "bench.targets", func() {
			now := w.Eng.Now()
			dets := targetPicture(sc.Size, now)
			if m.inner == nil {
				m.tracker.Observe(now, dets)
				return
			}
			t0 := time.Now()
			m.tracker.Observe(now, dets)
			m.inner.add("track.observe", t0, time.Now())
		})
	}

	var err error
	m.synthesizeSec = m.stage("core.synthesize", func() { err = r.Synthesize() })
	if err != nil {
		w.Stop()
		return nil, fmt.Errorf("synthesize: %w", err)
	}
	m.startSec = m.stage("core.start", func() { err = r.Start() })
	if err != nil {
		w.Stop()
		return nil, fmt.Errorf("start: %w", err)
	}

	invs := verify.MissionInvariants(w, r)
	if m.inner != nil {
		for i := range invs {
			check := invs[i].Check
			invs[i].Check = func() error {
				t0 := time.Now()
				err := check()
				m.inner.add("verify.check", t0, time.Now())
				return err
			}
		}
	}
	m.reg = verify.NewRegistry()
	m.reg.Add(invs...)

	if sc.Plan != nil {
		fault.Apply(fault.Target{
			Eng: w.Eng, Pop: w.Pop, Net: w.Net, Jam: w.Jam, Smoke: w.Smoke,
			Composite:   func() []asset.ID { return r.Composite().Members },
			CommandPost: func() asset.ID { return r.Sink() },
			CrashPost:   r.CrashPost,
			Failover:    r.Failover,
		}, sc.Plan)
	}
	m.reg.Arm(w.Eng, time.Second)
	return m, nil
}

// targetPicture is the deterministic three-target picture verify.Run
// fuses at the command post.
func targetPicture(size float64, now time.Duration) []track.Detection {
	ts := now.Seconds()
	return []track.Detection{
		{Pos: geo.Point{X: size/6 + 3*ts, Y: size / 4}, Var: 9, Sensor: 1},
		{Pos: geo.Point{X: 3*size/4 - 2*ts, Y: size / 2}, Var: 9, Sensor: 2},
		{Pos: geo.Point{X: size / 2, Y: size/6 + 2.5*ts}, Var: 9, Sensor: 3},
	}
}

// run advances the mission by d and sweeps the invariants once more at
// the end, as verify.Run does.
func (m *liveMission) run(d time.Duration) error {
	var err error
	var id int
	if m.rec != nil {
		id = m.rec.begin("core.run", m.parent)
	}
	t0 := time.Now()
	err = m.w.Run(d)
	m.reg.CheckNow(m.w.Eng.Now())
	m.runSec += time.Since(t0).Seconds()
	if m.rec != nil {
		m.rec.end(id)
		m.rec.adopt(id, m.inner)
	}
	return err
}

func (m *liveMission) stop() {
	m.reg.Disarm()
	m.r.Stop()
	m.w.Stop()
}

type classicInst struct {
	sc verify.Scenario
}

func setupClassic(e env) (instance, error) {
	c := &classicInst{sc: classicScenario(e.seed, e.quick)}
	// Warm-up: the full world and mission, run over the first sixth of
	// the horizon.
	m, err := startMission(c.sc, nil, -1)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	if err := m.run(c.sc.Horizon / 6); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *classicInst) unit(rec *recorder) outcome {
	out := outcome{ops: 1, counts: map[string]float64{}}
	root := -1
	if rec != nil {
		root = rec.begin("core.mission", -1)
		defer rec.end(root)
	}
	m, err := startMission(c.sc, rec, root)
	if err != nil {
		return out.fail("%v", err)
	}
	defer m.stop()
	if err := m.run(c.sc.Horizon); err != nil {
		return out.fail("run: %v", err)
	}
	for _, v := range m.reg.Violations() {
		out.fail("invariant %s", v)
	}
	out.digest = m.r.Metrics.Fingerprint()

	k := out.counts
	k["sim.events"] = float64(m.w.Eng.Processed())
	k["core.new_world_s"] = m.newWorldSec
	k["core.synthesize_s"] = m.synthesizeSec
	k["core.start_s"] = m.startSec
	k["core.run_s"] = m.runSec
	k["core.success_rate"] = m.r.Metrics.SuccessRate()
	k["verify.checks"] = float64(m.reg.Checks())
	k["mesh.network.refresh_ticks"] = refreshTicks(c.sc.Horizon)
	if coord := m.r.Checkpoints(); coord != nil {
		k["checkpoint.cuts"] = float64(coord.Taken.Value())
		k["checkpoint.cut_bytes"] = ratio(float64(coord.BytesTotal.Value()), float64(coord.Taken.Value()))
	}
	out.notes = append(out.notes, fmt.Sprintf("fingerprint=%016x success_rate=%.6f incidents=%d events=%d checks=%d",
		out.digest, m.r.Metrics.SuccessRate(), m.r.Metrics.Incidents.Value(), m.w.Eng.Processed(), m.reg.Checks()))
	return out
}

func (c *classicInst) verify(_ *recorder, units []outcome) []string { return sameDigest(units) }

func (c *classicInst) layers(t traceInfo) map[string]float64 {
	m := t.out.counts
	m["sim.events_per_s"] = ratio(m["sim.events"], t.wall)
	probeMission(c.sc, t.wall, m)

	// The owner-only form ROADMAP item 1 folds runtime.go into, at the
	// scale the sharded core is for.
	assets := 10 * c.sc.Assets
	t0 := time.Now()
	if res, err := core.RunShardMission(c.sc.Seed, 2, core.ShardMissionConfig{Assets: assets}); err == nil {
		m["core.shardmission.events_per_s"] = ratio(float64(res.Events), time.Since(t0).Seconds())
	}
	return m
}

func (c *classicInst) close() {}

// probeMission prices, on a freshly built copy of sc's mission, the
// calls a running mission makes every tick: the numbers behind the
// *.est_busy_s figures (probe cost × exact count), which rank suspects
// but do not account.
func probeMission(sc verify.Scenario, unitWall float64, m map[string]float64) {
	lm, err := startMission(sc, nil, -1)
	if err != nil {
		return
	}
	defer lm.stop()
	// A few seconds in, so assets have moved and routes are in use.
	if err := lm.run(5 * time.Second); err != nil {
		return
	}
	w, r := lm.w, lm.r

	refresh := timeEach(20, func(int) { w.Net.Refresh() })
	m["mesh.network.refresh_ms"] = median(refresh) * 1e3
	m["mesh.network.est_busy_s"] = median(refresh) * m["mesh.network.refresh_ticks"]
	m["mesh.network.est_share"] = ratio(m["mesh.network.est_busy_s"], unitWall)

	// Route cache: the write side (first lookup after a Refresh) and the
	// read side (the same lookup again).
	nodes := w.Net.Nodes()
	sink := r.Sink()
	if len(nodes) > 0 {
		w.Net.Refresh()
		n := min(len(nodes), 200)
		cold := timeEach(n, func(i int) { w.Net.Route(nodes[i], sink) })
		warm := timeEach(n, func(i int) { w.Net.Route(nodes[i], sink) })
		m["mesh.network.route_cold_us"] = median(cold) * 1e6
		m["mesh.network.route_cached_us"] = median(warm) * 1e6
	}

	sweep := timeEach(100, func(int) { lm.reg.CheckNow(w.Eng.Now()) })
	m["verify.sweep_us"] = median(sweep) * 1e6
	m["verify.est_busy_s"] = median(sweep) * ratio(m["verify.checks"], float64(lm.reg.Len()))
	m["verify.est_share"] = ratio(m["verify.est_busy_s"], unitWall)

	req := compose.Derive(r.Mission.Goal)
	pool := compose.PoolFromPopulation(w.Pop, w.Trust)
	solve := timeEach(5, func(int) { _, _ = compose.GreedySolver{}.Solve(req, pool) })
	m["compose.greedy_solve_ms"] = median(solve) * 1e3

	if lm.tracker != nil {
		now := w.Eng.Now()
		observe := timeEach(100, func(i int) {
			at := now + time.Duration(i+1)*time.Second
			lm.tracker.Observe(at, targetPicture(sc.Size, at))
		})
		m["track.observe_us"] = median(observe) * 1e6
	}
	if coord := r.Checkpoints(); coord != nil {
		capture := timeEach(20, func(int) { coord.Capture() })
		m["checkpoint.capture_us"] = median(capture) * 1e6
	}
}

// refreshTicks is how many neighbour refreshes a mission of horizon d
// runs: core.NewWorld builds its network from mesh.DefaultConfig.
func refreshTicks(d time.Duration) float64 {
	return float64(d / mesh.DefaultConfig().NeighborRefresh)
}

// timeEach calls fn(0..n-1) and returns each call's seconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
