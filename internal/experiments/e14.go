package experiments

import (
	"time"

	"iobt/internal/fault"
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
	var verif verify.Summary
	run := func(intensity float64, degrade bool) *verify.Outcome {
		o := verify.Run(e14Scenario(seed, intensity, degrade))
		verif.Merge(o.Summary)
		return o
	}

	for _, s := range e14Intensities(quick) {
		reflex := run(s, true)
		rep := reflex.Report
		if rep == nil {
			t.AddRow(f2(s), "run failed", "", "", "", "", "", "")
			continue
		}
		withReflex, without := reflex.Metrics.SuccessRate(), 0.0
		if o := run(s, false); !o.Skipped {
			without = o.Metrics.SuccessRate()
		}
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

// e14Intensities is the swept plan scale; quick mode trims the sweep
// rather than e14Horizon.
func e14Intensities(quick bool) []float64 {
	if quick {
		return []float64{0.5, 1.0}
	}
	return []float64{0.25, 0.5, 0.75, 1.0}
}

// e14Scenario is one E14 mission: hierarchy with ARQ orders under the
// standard plan scaled to intensity, reflexes on or off.
func e14Scenario(seed int64, intensity float64, degrade bool) verify.Scenario {
	const size = 1200.0
	return verify.Scenario{Seed: seed, Assets: 250, Size: size, Terrain: "open",
		Command: "hierarchy", Reliable: true, Degrade: degrade, Rate: 30, Horizon: e14Horizon,
		Coverage: 0.6, Redundancy: 3, // a multi-member composite, so the kill wave bites
		Plan: fault.StandardPlan(size).Scale(intensity)}
}
