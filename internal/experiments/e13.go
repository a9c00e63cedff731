package experiments

import (
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
	"iobt/internal/track"
)

// E13Tracking reproduces §II's flagship task: "tracking a dispersed
// group of humans and vehicles moving through cluttered environments" —
// multi-target tracking continuity as a function of sensor density, and
// its degradation when sensors die mid-mission (the churn regime).
func E13Tracking(seed int64, quick bool) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "multi-target tracking continuity by sensor density and churn",
		Header: []string{"sensors", "churn", "continuity", "mean err (m)", "track drops", "detections"},
		Notes: "continuity rises with density; after 3/4 of sensors die mid-run, warm tracks (learned velocities + " +
			"coasting) hold continuity far above what the surviving density achieves from a cold start — error and " +
			"track drops rise instead",
	}
	horizon := 5 * time.Minute
	if quick {
		horizon = 2 * time.Minute
	}
	run := func(nSensors int, churnHalf bool) (float64, float64, int, uint64) {
		rng := sim.NewRNG(seed)
		// Five targets sweeping lanes across a 1 km sector.
		var targets []geo.Mobility
		for i := 0; i < 5; i++ {
			y := float64(150 + i*160)
			targets = append(targets, geo.NewPatrol([]geo.Point{
				{X: 100, Y: y}, {X: 900, Y: y},
			}, 6))
		}
		// Sensor grid over the sector.
		var sensors []track.Sensor
		cols := nSensors / 2
		if cols < 2 {
			cols = 2
		}
		for i := 0; i < nSensors; i++ {
			x := 100 + float64(i%cols)*(800/float64(cols-1))
			y := 300.0
			if i >= cols {
				y = 650
			}
			sensors = append(sensors, track.Sensor{
				ID: int32(i), Mob: &geo.Static{P: geo.Point{X: x, Y: y}},
				Range: 280, Var: 16, DetectProb: 0.8,
			})
		}
		sc := track.NewScenario(rng, targets, sensors, track.Config{ProcessNoise: 36})
		if !churnHalf {
			sc.Run(horizon)
		} else {
			sc.Run(horizon / 2)
			// Three quarters of the sensors die mid-mission
			// (battery/attrition): only every fourth survives.
			for i := range sensors {
				if i%4 != 0 {
					sc.DisableSensor(sensors[i].ID)
				}
			}
			sc.Run(horizon / 2)
		}
		return sc.Continuity.Mean(), sc.RMSE.Mean(), sc.Tracker().Dropped, sc.Detections.Value()
	}
	for _, n := range []int{4, 8, 16} {
		c, rmse, drops, dets := run(n, false)
		t.AddRow(d(n), "no", f2(c), f2(rmse), d(drops), d(int(dets)))
	}
	c, rmse, drops, dets := run(16, true)
	t.AddRow("16->4", "yes", f2(c), f2(rmse), d(drops), d(int(dets)))
	return t
}
