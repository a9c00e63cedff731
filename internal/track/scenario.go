package track

import (
	"math"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// Sensor is one detection source: a fixed or mobile asset with a
// footprint, accuracy, and detection probability.
type Sensor struct {
	ID int32
	// Mob gives the sensor's (possibly moving) position.
	Mob geo.Mobility
	// Range is the detection footprint radius.
	Range float64
	// Var is the per-axis measurement variance.
	Var float64
	// DetectProb is the per-tick detection probability for a target in
	// range.
	DetectProb float64
}

// Scenario drives targets and sensors against a Tracker and scores the
// result: the wide-area persistent surveillance loop.
type Scenario struct {
	rng     *sim.RNG
	targets []geo.Mobility
	sensors []Sensor
	tracker *Tracker
	now     time.Duration

	// RMSE accumulates per-tick tracking error for covered targets.
	RMSE sim.Series
	// Continuity accumulates the per-tick fraction of targets covered by
	// a confirmed track.
	Continuity sim.Series
	// Detections counts raw sensor detections.
	Detections sim.Counter
}

// continuityWindow is how close, in meters, a confirmed track must be
// to count as covering a target.
const continuityWindow = 50

// NewScenario builds a scenario over the given ground-truth targets and
// sensors.
func NewScenario(rng *sim.RNG, targets []geo.Mobility, sensors []Sensor, cfg Config) *Scenario {
	ts := make([]geo.Mobility, len(targets))
	copy(ts, targets)
	ss := make([]Sensor, len(sensors))
	copy(ss, sensors)
	return &Scenario{
		rng:     rng,
		targets: ts,
		sensors: ss,
		tracker: NewTracker(cfg),
	}
}

// Tracker exposes the underlying tracker.
func (s *Scenario) Tracker() *Tracker { return s.tracker }

// Tick advances ground truth by dt, generates detections, feeds the
// tracker, and scores coverage.
func (s *Scenario) Tick(dt time.Duration) {
	s.now += dt
	// Ground truth moves.
	truth := make([]geo.Point, len(s.targets))
	for i, m := range s.targets {
		truth[i] = m.Step(dt)
	}
	// Sensors move and detect.
	var dets []Detection
	for i := range s.sensors {
		sn := &s.sensors[i]
		pos := sn.Mob.Step(dt)
		for _, tp := range truth {
			if pos.Dist(tp) > sn.Range {
				continue
			}
			if !s.rng.Bool(sn.DetectProb) {
				continue
			}
			noise := geo.Vec{
				DX: s.rng.Norm(0, sqrt(sn.Var)),
				DY: s.rng.Norm(0, sqrt(sn.Var)),
			}
			dets = append(dets, Detection{Pos: tp.Add(noise), Var: sn.Var, Sensor: sn.ID})
			s.Detections.Inc()
		}
	}
	s.tracker.Observe(s.now, dets)

	// Score: each target covered by a confirmed track within the window?
	covered := 0
	for _, tp := range truth {
		if tr, d := s.tracker.Nearest(tp); tr != nil && d <= continuityWindow {
			covered++
			s.RMSE.Add(d)
		}
	}
	if len(truth) > 0 {
		s.Continuity.Add(float64(covered) / float64(len(truth)))
	}
}

// Run ticks the scenario for the given duration at the given cadence.
func (s *Scenario) Run(total, dt time.Duration) {
	for elapsed := time.Duration(0); elapsed < total; elapsed += dt {
		s.Tick(dt)
	}
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// DisableSensor zeroes a sensor's detection probability (battery death
// or destruction mid-mission). Unknown IDs are ignored.
func (s *Scenario) DisableSensor(id int32) {
	for i := range s.sensors {
		if s.sensors[i].ID == id {
			s.sensors[i].DetectProb = 0
		}
	}
}
