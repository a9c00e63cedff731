package experiments

import (
	"time"

	"iobt/internal/fault"
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
	intervals := e15Intervals(quick)
	var verif verify.Summary
	row := func(mode string, every time.Duration) {
		o := verify.Run(e15Scenario(seed, mode, every))
		verif.Merge(o.Summary)
		if o.Report == nil || len(o.Violations) > 0 || len(o.Report.Recovery) != 1 {
			t.AddRow(mode, every.String(), "run failed", "", "", "", "", "")
			return
		}
		gap := o.Report.Recovery[0]
		resume := "never"
		if gap.Resumed {
			resume = f0(gap.TimeToResume.Seconds())
		}
		t.AddRow(mode, every.String(), d(int(o.Checkpoints)), d(int(gap.OrdersLost)), resume,
			f2(gap.StaleTrust), d(gap.TrackFrag), f2(o.Metrics.SuccessRate()))
	}

	// The no-promotion baseline and the cold rebuild do not read
	// checkpoints, so one row each suffices (run with the first swept
	// cadence so checkpoint airtime is comparable).
	row("none", intervals[0])
	row("cold", intervals[0])
	for _, every := range intervals {
		row("warm", every)
	}
	t.Verification = &verif
	return t
}

// e15Intervals is the swept checkpoint cadence.
func e15Intervals(quick bool) []time.Duration {
	if quick {
		return []time.Duration{15 * time.Second, 60 * time.Second}
	}
	return []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second, 60 * time.Second}
}

// e15Scenario is one E15 mission: hierarchy with ARQ orders, a tracked
// three-target picture and checkpoints every interval, with the post
// crashed at 119s and mode's failover (none, cold or warm) 500ms later.
func e15Scenario(seed int64, mode string, every time.Duration) verify.Scenario {
	plan := &fault.Plan{Name: "e15-" + mode}
	plan.Add(fault.Fault{Kind: fault.CrashPost, At: 119 * time.Second})
	if mode != "none" {
		plan.Add(fault.Fault{Kind: fault.Failover,
			At: 119*time.Second + 500*time.Millisecond, Warm: mode == "warm"})
	}
	return verify.Scenario{Seed: seed, Assets: 250, Size: 1200, Terrain: "open",
		Command: "hierarchy", Reliable: true, Checkpoint: every, Rate: 30, Horizon: e15Horizon,
		Track: true, Plan: plan}
}
