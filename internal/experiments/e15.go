package experiments

import (
	"time"

	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/track"
	"iobt/internal/verify"
)

// e15Horizon is one E15 mission.
const e15Horizon = 5 * time.Minute

// E15Failover measures command-post survivability: the recovery gap
// after the post is destroyed, under three dispositions (no promotion,
// cold rebuild, warm restore from the last checkpoint), swept over the
// checkpoint cadence. The command post concentrates the mission's
// richest state — composite roll, trust ledger, track picture,
// unacknowledged orders — and the paper's threat model makes it a
// priority target; this experiment quantifies what each checkpoint
// interval buys when it dies: orders lost, time until command resumes,
// trust evidence gone stale, and track-picture fragmentation.
func E15Failover(seed int64, quick bool) *Table {
	t := &Table{
		ID:    "E15",
		Title: "failover recovery gap vs checkpoint interval (crash post at 119s)",
		Header: []string{"mode", "ckpt every", "ckpts", "orders lost", "resume (s)",
			"stale trust", "track frag", "success"},
		Notes: "warm beats cold on orders lost and time-to-resume at every interval (cold pays the full rebuild, " +
			"warm only the handover); shorter checkpoint intervals shrink warm's stale-trust window, and the track " +
			"picture survives a warm failover only when the checkpoint is younger than the tracker's coast window",
	}
	const size = 1200.0
	intervals := []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second, 60 * time.Second}
	if quick {
		intervals = []time.Duration{15 * time.Second, 60 * time.Second}
	}

	type outcome struct {
		gap     fault.RecoveryGap
		ckpts   uint64
		success float64
		ok      bool
		verif   verify.Summary
	}

	run := func(mode string, every time.Duration) outcome {
		w := core.NewWorld(core.WorldConfig{
			Seed:    seed,
			Terrain: geo.NewOpenTerrain(size, size),
			Assets:  250,
		})
		defer w.Stop()
		m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
		m.Goal.CoverageFrac = 0.4
		m.Command = core.CommandHierarchy
		m.ReliableOrders = true
		m.IncidentsPerMin = 30
		m.CheckpointEvery = every
		m.TrustAudit = true
		r := core.NewRuntime(w, m)

		// A deterministic three-target picture fused at the post, so
		// fragmentation across the failover is measurable.
		tracker := track.NewTracker(track.Config{})
		r.AttachTracker(tracker)
		w.Eng.Every(time.Second, "e15.targets", func() {
			ts := w.Eng.Now().Seconds()
			tracker.Observe(w.Eng.Now(), []track.Detection{
				{Pos: geo.Point{X: 200 + 3*ts, Y: 300}, Var: 9, Sensor: 1},
				{Pos: geo.Point{X: 900 - 2*ts, Y: 600}, Var: 9, Sensor: 2},
				{Pos: geo.Point{X: 550, Y: 200 + 2.5*ts}, Var: 9, Sensor: 3},
			})
		})

		if err := r.Synthesize(); err != nil {
			return outcome{}
		}
		if err := r.Start(); err != nil {
			return outcome{}
		}
		defer r.Stop()

		plan := &fault.Plan{Name: "e15-" + mode}
		plan.Add(fault.Fault{Kind: fault.CrashPost, At: 119 * time.Second})
		if mode != "none" {
			plan.Add(fault.Fault{Kind: fault.Failover,
				At: 119*time.Second + 500*time.Millisecond, Warm: mode == "warm"})
		}
		reg := verify.NewRegistry()
		reg.Add(verify.MissionInvariants(w, r)...)
		reg.Arm(w.Eng, time.Second)
		rep, err := fault.Run(w.FaultTarget(r), plan, e15Horizon)
		summary := closeRegistry(reg, w.Eng)
		if err != nil || !reg.OK() || len(rep.Recovery) != 1 {
			return outcome{verif: summary}
		}
		var ckpts uint64
		if c := r.Checkpoints(); c != nil {
			ckpts = c.Taken.Value()
		}
		return outcome{gap: rep.Recovery[0], ckpts: ckpts, success: r.Metrics.SuccessRate(), ok: true,
			verif: summary}
	}

	var verif verify.Summary

	row := func(mode string, every time.Duration, o outcome) {
		verif.Merge(o.verif)
		if !o.ok {
			t.AddRow(mode, every.String(), "run failed", "", "", "", "", "")
			return
		}
		resume := "never"
		if o.gap.Resumed {
			resume = f0(o.gap.TimeToResume.Seconds())
		}
		everyS := "-"
		if every > 0 {
			everyS = every.String()
		}
		t.AddRow(mode, everyS, d(int(o.ckpts)), d(int(o.gap.OrdersLost)), resume,
			f2(o.gap.StaleTrust), d(o.gap.TrackFrag), f2(o.success))
	}

	// The no-promotion baseline and the cold rebuild do not read
	// checkpoints, so one row each suffices (run with the first swept
	// cadence so checkpoint airtime is comparable).
	row("none", intervals[0], run("none", intervals[0]))
	row("cold", intervals[0], run("cold", intervals[0]))
	for _, every := range intervals {
		row("warm", every, run("warm", every))
	}
	t.Verification = &verif
	return t
}
