package track

import (
	"math"
	"testing"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// TestKalmanConvergesOnLinearMotion holds the filter to its own error
// bars over a seed sweep instead of to one stream's luck: after 100
// sigma=3 updates of a target moving at (5,-3) m/s, each state
// component's error is compared with the filter's posterior sigma for it
// (2.24 m in position and 1.41 m/s in velocity at q=1 — the old +-0.5 m/s
// bound was a third of a sigma, met by the seed and by little else). The
// truth has no acceleration, so the posterior is conservative: a sweep
// of 32 seeds measured a median normalized error of 0.50 (0.67 for a
// matched filter), 127 of 128 inside 2 sigma, maximum 2.06.
func TestKalmanConvergesOnLinearMotion(t *testing.T) {
	const seeds = 32
	var inside2, total int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := sim.NewRNG(seed)
		// Truth: starts at (0,0), moves at (5,-3) m/s; measurements sigma=3.
		kf := NewKalmanCV(geo.Point{X: 0, Y: 0}, 9, 1)
		truth := geo.Point{}
		vel := geo.Vec{DX: 5, DY: -3}
		for i := 0; i < 100; i++ {
			truth = truth.Add(vel)
			kf.Predict(1)
			z := truth.Add(geo.Vec{DX: rng.Norm(0, 3), DY: rng.Norm(0, 3)})
			kf.Update(z, 9)
		}
		// Covariance should have shrunk to the measurement level in
		// position and far below the unknown-velocity prior of 100.
		if kf.PosVar() > 9 || kf.P[10] > 10 {
			t.Fatalf("seed %d: posterior variance pos %.2f vel %.2f", seed, kf.PosVar(), kf.P[10])
		}
		want := [4]float64{truth.X, truth.Y, vel.DX, vel.DY}
		for c := range want {
			z := math.Abs(kf.X[c]-want[c]) / math.Sqrt(kf.P[c*4+c])
			if z > 4 {
				t.Errorf("seed %d: state[%d] = %.2f, want %.2f: %.1f posterior sigma out", seed, c, kf.X[c], want[c], z)
			}
			if z < 2 {
				inside2++
			}
			total++
		}
	}
	// A matched Gaussian puts 95.4 % inside 2 sigma; 90 % of 128 is
	// three standard deviations of that count below its mean.
	if float64(inside2) < 0.9*float64(total) {
		t.Errorf("%d of %d state errors inside 2 posterior sigma, want >= 90%%", inside2, total)
	}
}

func TestKalmanPredictGrowsUncertainty(t *testing.T) {
	kf := NewKalmanCV(geo.Point{}, 9, 2)
	before := kf.PosVar()
	kf.Predict(5)
	if kf.PosVar() <= before {
		t.Error("prediction did not grow position variance")
	}
	kf.Predict(0)  // no-op
	kf.Predict(-1) // no-op
}

func TestKalmanUpdateShrinksUncertainty(t *testing.T) {
	kf := NewKalmanCV(geo.Point{}, 100, 1)
	before := kf.PosVar()
	kf.Update(geo.Point{X: 1, Y: 1}, 4)
	if kf.PosVar() >= before {
		t.Error("update did not shrink variance")
	}
	kf.Update(geo.Point{}, 0) // invalid variance defaults, no panic
}

func TestTrackerFollowsSingleTarget(t *testing.T) {
	rng := sim.NewRNG(2)
	tr := NewTracker(Config{})
	truth := geo.Point{X: 100, Y: 100}
	vel := geo.Vec{DX: 4, DY: 2}
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		now += time.Second
		truth = truth.Add(vel)
		det := Detection{Pos: truth.Add(geo.Vec{DX: rng.Norm(0, 2), DY: rng.Norm(0, 2)}), Var: 4, Sensor: 1}
		tr.Observe(now, []Detection{det})
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("confirmed tracks = %d, want 1", len(tracks))
	}
	if d := tracks[0].Pos().Dist(truth); d > 6 {
		t.Errorf("track error = %.2f m", d)
	}
	if tr.Dropped != 0 {
		t.Errorf("dropped = %d", tr.Dropped)
	}
}

func TestTrackerSeparatesTwoTargets(t *testing.T) {
	rng := sim.NewRNG(3)
	tr := NewTracker(Config{})
	a := geo.Point{X: 0, Y: 0}
	b := geo.Point{X: 400, Y: 0}
	now := time.Duration(0)
	for i := 0; i < 40; i++ {
		now += time.Second
		a = a.Add(geo.Vec{DX: 3, DY: 0})
		b = b.Add(geo.Vec{DX: -3, DY: 0})
		tr.Observe(now, []Detection{
			{Pos: a.Add(geo.Vec{DX: rng.Norm(0, 1), DY: rng.Norm(0, 1)}), Var: 1, Sensor: 1},
			{Pos: b.Add(geo.Vec{DX: rng.Norm(0, 1), DY: rng.Norm(0, 1)}), Var: 1, Sensor: 2},
		})
	}
	if got := len(tr.Tracks()); got != 2 {
		t.Fatalf("confirmed tracks = %d, want 2", got)
	}
	// Each truth position must have a nearby distinct track.
	ta, da := tr.Nearest(a)
	tb, db := tr.Nearest(b)
	if ta == nil || tb == nil || ta.ID == tb.ID {
		t.Fatal("targets share a track")
	}
	if da > 10 || db > 10 {
		t.Errorf("errors = %.1f, %.1f", da, db)
	}
}

func TestTrackerCoastsThroughOcclusion(t *testing.T) {
	rng := sim.NewRNG(4)
	tr := NewTracker(Config{})
	truth := geo.Point{X: 0, Y: 0}
	now := time.Duration(0)
	step := func(detect bool) {
		now += time.Second
		truth = truth.Add(geo.Vec{DX: 5, DY: 0})
		var dets []Detection
		if detect {
			dets = append(dets, Detection{Pos: truth.Add(geo.Vec{DX: rng.Norm(0, 1), DY: rng.Norm(0, 1)}), Var: 1, Sensor: 1})
		}
		tr.Observe(now, dets)
	}
	for i := 0; i < 20; i++ {
		step(true)
	}
	id := tr.Tracks()[0].ID
	for i := 0; i < 4; i++ { // occluded for 4s < coastTime
		step(false)
	}
	for i := 0; i < 10; i++ {
		step(true)
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("tracks after occlusion = %d", len(tracks))
	}
	if tracks[0].ID != id {
		t.Error("track identity lost across occlusion (should coast)")
	}
}

func TestTrackerDropsStaleTrack(t *testing.T) {
	tr := NewTracker(Config{})
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		now += time.Second
		tr.Observe(now, []Detection{{Pos: geo.Point{X: float64(i), Y: 0}, Var: 1, Sensor: 1}})
	}
	// Target disappears for good.
	for i := 0; i < 10; i++ {
		now += time.Second
		tr.Observe(now, nil)
	}
	if len(tr.All()) != 0 {
		t.Errorf("stale track survived: %d", len(tr.All()))
	}
	if tr.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", tr.Dropped)
	}
}

func TestTrackerSensorHandoff(t *testing.T) {
	rng := sim.NewRNG(5)
	tr := NewTracker(Config{})
	truth := geo.Point{X: 0, Y: 0}
	now := time.Duration(0)
	for i := 0; i < 40; i++ {
		now += time.Second
		truth = truth.Add(geo.Vec{DX: 10, DY: 0})
		sensor := int32(1)
		if truth.X > 200 {
			sensor = 2 // target crossed into the second sensor's footprint
		}
		tr.Observe(now, []Detection{{Pos: truth.Add(geo.Vec{DX: rng.Norm(0, 1), DY: rng.Norm(0, 1)}), Var: 1, Sensor: sensor}})
	}
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d, want 1 across handoff", len(tracks))
	}
	if !tracks[0].Sensors[1] || !tracks[0].Sensors[2] {
		t.Errorf("handoff trail = %v, want both sensors", tracks[0].Sensors)
	}
}

func TestScenarioContinuityImprovesWithSensorDensity(t *testing.T) {
	continuity := func(nSensors int) float64 {
		rng := sim.NewRNG(6)
		var targets []geo.Mobility
		for i := 0; i < 4; i++ {
			targets = append(targets, geo.NewPatrol([]geo.Point{
				{X: 100, Y: float64(150 + 150*i)}, {X: 900, Y: float64(150 + 150*i)},
			}, 8))
		}
		var sensors []Sensor
		cols := nSensors / 2
		for i := 0; i < nSensors; i++ {
			x := 100 + float64(i%cols)*(800/float64(cols-1))
			y := 250.0
			if i >= cols {
				y = 600
			}
			sensors = append(sensors, Sensor{
				ID: int32(i), Mob: &geo.Static{P: geo.Point{X: x, Y: y}},
				Range: 220, Var: 16, DetectProb: 0.8,
			})
		}
		sc := NewScenario(rng, targets, sensors, Config{})
		sc.Run(3*time.Minute, time.Second)
		return sc.Continuity.Mean()
	}
	sparse := continuity(4)
	dense := continuity(10)
	if dense <= sparse {
		t.Errorf("continuity sparse=%.2f dense=%.2f; want improvement", sparse, dense)
	}
	if dense < 0.6 {
		t.Errorf("dense continuity = %.2f, want >= 0.6", dense)
	}
}

func TestScenarioRMSEBounded(t *testing.T) {
	rng := sim.NewRNG(7)
	targets := []geo.Mobility{geo.NewPatrol([]geo.Point{{X: 100, Y: 300}, {X: 700, Y: 300}}, 6)}
	sensors := []Sensor{
		{ID: 1, Mob: &geo.Static{P: geo.Point{X: 250, Y: 300}}, Range: 250, Var: 9, DetectProb: 0.9},
		{ID: 2, Mob: &geo.Static{P: geo.Point{X: 600, Y: 300}}, Range: 250, Var: 9, DetectProb: 0.9},
	}
	// Patrolling targets reverse instantly at waypoints, which a CV
	// filter only survives with maneuver-scale process noise (the
	// standard tuning rule: q ~ max expected acceleration squared).
	sc := NewScenario(rng, targets, sensors, Config{ProcessNoise: 36})
	sc.Run(4*time.Minute, time.Second)
	if sc.Continuity.Mean() < 0.8 {
		t.Errorf("continuity = %.2f", sc.Continuity.Mean())
	}
	if sc.RMSE.Mean() > 12 {
		t.Errorf("mean error = %.2f m (measurement sigma is 3)", sc.RMSE.Mean())
	}
	if sc.Detections.Value() == 0 {
		t.Error("no detections")
	}
	// Handoff happened: the single confirmed track saw both sensors.
	tracks := sc.Tracker().Tracks()
	if len(tracks) == 1 && (!tracks[0].Sensors[1] || !tracks[0].Sensors[2]) {
		t.Error("no sensor handoff recorded")
	}
}

func TestFixesExport(t *testing.T) {
	tr := NewTracker(Config{})
	rng := sim.NewRNG(3)
	// Feed one target enough detections to confirm it.
	for i := 0; i < 5; i++ {
		now := time.Duration(i) * time.Second
		tr.Observe(now, []Detection{{
			Pos:    geo.Point{X: 100 + 5*float64(i) + rng.Norm(0, 1), Y: 200 + rng.Norm(0, 1)},
			Var:    4,
			Sensor: 1,
		}})
	}
	fixes := tr.Fixes()
	if len(fixes) == 0 {
		t.Fatal("no fixes exported")
	}
	var confirmed int
	for i, f := range fixes {
		if i > 0 && fixes[i-1].ID >= f.ID {
			t.Fatal("fixes not ascending by ID")
		}
		if f.Confirmed {
			confirmed++
			if f.Hits < 3 {
				t.Errorf("confirmed fix with %d hits", f.Hits)
			}
			if math.Abs(f.Pos.X-120) > 20 || math.Abs(f.Pos.Y-200) > 20 {
				t.Errorf("fix position %v far from truth", f.Pos)
			}
		}
	}
	if confirmed == 0 {
		t.Error("expected at least one confirmed fix")
	}
}
