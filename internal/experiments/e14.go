package experiments

import (
	"time"

	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/verify"
)

// e14Horizon is one E14 mission: it must outlast the standard plan's
// four-minute blackout for recovery to be observable.
const e14Horizon = 6 * time.Minute

// E14Recovery measures recovery from the standard composite disruption
// — partition, jam wave, 1/3 kill wave, command-post loss — swept over
// fault intensity, with the graceful-degradation reflexes on and off.
// The paper requires missions to "re-assemble upon damage within an
// appropriately short time"; this experiment puts numbers on that
// re-assembly: time to detect the degradation, time to recover goodput,
// goodput while degraded, and the mission success with vs. without the
// reflexes (command-continuity fallback + coverage relaxation).
func E14Recovery(seed int64, quick bool) *Table {
	t := &Table{
		ID:    "E14",
		Title: "recovery time and goodput vs fault intensity (standard plan)",
		Header: []string{"intensity", "detect (s)", "recover (s)", "degraded goodput",
			"success/reflex", "success/none", "ratio", "killed"},
		Notes: "recovery time and degradation depth grow with fault intensity; at full intensity the reflexes " +
			"(hierarchy->intent fallback + coverage relaxation) keep success >=2x the reflexless mission",
	}
	// Quick mode trims the intensity sweep rather than e14Horizon.
	const size = 1200.0
	assets := 250
	intensities := []float64{0.25, 0.5, 0.75, 1.0}
	if quick {
		intensities = []float64{0.5, 1.0}
	}

	var verif verify.Summary
	run := func(scale float64, degrade bool) (*fault.Report, float64) {
		w := core.NewWorld(core.WorldConfig{
			Seed:    seed,
			Terrain: geo.NewOpenTerrain(size, size),
			Assets:  assets,
		})
		defer w.Stop()
		m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
		m.Goal.CoverageFrac = 0.6
		m.Goal.Redundancy = 3 // a multi-member composite, so the kill wave bites
		m.Command = core.CommandHierarchy
		m.ReliableOrders = true
		m.Degradation = degrade
		m.IncidentsPerMin = 30
		r := core.NewRuntime(w, m)
		if err := r.Synthesize(); err != nil {
			return nil, 0
		}
		if err := r.Start(); err != nil {
			return nil, 0
		}
		defer r.Stop()
		reg := verify.NewRegistry()
		reg.Add(verify.MissionInvariants(w, r)...)
		reg.Arm(w.Eng, time.Second)
		rep, err := fault.Run(w.FaultTarget(r), fault.StandardPlan(size).Scale(scale), e14Horizon)
		verif.Merge(closeRegistry(reg, w.Eng))
		if err != nil {
			return nil, 0
		}
		return rep, r.Metrics.SuccessRate()
	}

	for _, s := range intensities {
		rep, withReflex := run(s, true)
		if rep == nil {
			t.AddRow(f2(s), "run failed", "", "", "", "", "", "")
			continue
		}
		_, without := run(s, false)
		// Aggregate detect/recover over the plan: earliest detection,
		// latest recovery (the composite disruption overlaps in time).
		detect, recover := -1.0, -1.0
		degraded, degN := 0.0, 0
		for _, fr := range rep.Faults {
			if fr.Detected && (detect < 0 || fr.TimeToDetect.Seconds() < detect) {
				detect = fr.TimeToDetect.Seconds()
			}
			if fr.Recovered && fr.TimeToRecover.Seconds() > recover {
				recover = fr.TimeToRecover.Seconds()
			}
			if fr.Detected && fr.DegradedGoodput > 0 {
				degraded += fr.DegradedGoodput
				degN++
			}
		}
		detectS, recoverS, degS := "absorbed", "-", "-"
		if detect >= 0 {
			detectS = f0(detect)
			recoverS = "not recovered"
			if recover >= 0 {
				recoverS = f0(recover)
			}
		}
		if degN > 0 {
			degS = f2(degraded / float64(degN))
		}
		ratio := "-"
		if without > 0 {
			ratio = f2(withReflex / without)
		}
		t.AddRow(f2(s), detectS, recoverS, degS,
			f2(withReflex), f2(without), ratio, d(int(rep.Killed)))
	}
	t.Verification = &verif
	return t
}
