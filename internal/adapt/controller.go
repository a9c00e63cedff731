package adapt

import "math"

// Controller is a model-reference adaptive controller for one scalar
// "adaptation knob" (paper §IV.B): it drives a measured output toward a
// setpoint by adjusting its knob, while adapting its own gain estimate
// of the plant. The concrete use in the experiments is sensing-rate
// control (knob = sampling rate, output = delivered information
// utility), but the controller is plant-agnostic.
type Controller struct {
	// Setpoint is the goal output.
	Setpoint float64
	// Knob is the current actuation value.
	Knob float64
	// Min/Max bound the knob.
	Min, Max float64

	// FixedGain, when true, disables online gain estimation: the
	// controller keeps its initial model of the plant. This is the
	// "component unaware of its peers" configuration that reproduces the
	// destructive-interference pathology of the paper's reference [12].
	FixedGain bool

	// gainEst is the adaptive estimate of d(output)/d(knob).
	gainEst float64
	// rate is the adaptation aggressiveness in (0,1].
	rate float64

	lastOut  float64
	lastKnob float64
	seeded   bool
	pinned   int
}

// NewController returns a controller driving its knob, from 0 within
// [0, 20], toward the setpoint 12 at full adaptation rate.
func NewController() *Controller {
	return &Controller{Setpoint: 12, Max: 20, gainEst: 1, rate: 1}
}

// Observe feeds one plant output measurement and updates the knob:
//  1. adapt the model: re-estimate plant gain from the last move;
//  2. adapt the action: step the knob by error/gain, scaled by rate.
func (c *Controller) Observe(output float64) {
	if c.seeded && !c.FixedGain {
		dKnob := c.Knob - c.lastKnob
		dOut := output - c.lastOut
		if math.Abs(dKnob) > 1e-9 {
			g := dOut / dKnob
			if !math.IsNaN(g) && !math.IsInf(g, 0) && g != 0 {
				c.gainEst = 0.7*c.gainEst + 0.3*g
			}
		}
		// Anti-windup sign probe: if the knob sits pinned at a bound
		// while the goal stays unmet, the gain model has the wrong sign
		// — flip it so the next step escapes the bound.
		atBound := c.Knob <= c.Min || c.Knob >= c.Max
		unmet := math.Abs(output-c.Setpoint) > 0.05*math.Abs(c.Setpoint)+1e-9
		if atBound && unmet && c.Knob == c.lastKnob {
			c.pinned++
			if c.pinned >= 2 {
				c.gainEst = -c.gainEst
				c.pinned = 0
			}
		} else {
			c.pinned = 0
		}
	}
	errv := c.Setpoint - output
	g := c.gainEst
	if math.Abs(g) < 0.05 {
		if g < 0 {
			g = -0.05
		} else {
			g = 0.05
		}
	}
	step := c.rate * errv / g
	// Bound a single move to 25% of the knob span to avoid slamming.
	span := c.Max - c.Min
	if span > 0 {
		limit := 0.25 * span
		if step > limit {
			step = limit
		}
		if step < -limit {
			step = -limit
		}
	}
	c.lastKnob = c.Knob
	c.lastOut = output
	c.seeded = true
	c.Knob = clamp(c.Knob+step, c.Min, c.Max)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Coordinator arbitrates a set of controllers that share one plant. The
// paper's reference [12] shows that "uncoordinated interactions of
// adaptive components, even when aimed at meeting the same goal, can
// result in unexpected consequences and severe performance loss";
// Coordinator implements the fix the experiments measure: round-robin
// actuation tokens so only one component adapts per tick, with the rest
// holding their knobs.
type Coordinator struct {
	controllers []*Controller
	next        int
}

// NewCoordinator returns a coordinator over the controllers.
func NewCoordinator(cs ...*Controller) *Coordinator {
	list := make([]*Controller, len(cs))
	copy(list, cs)
	return &Coordinator{controllers: list}
}

// Observe feeds the shared plant output to exactly one controller (the
// token holder); others record the observation without moving their
// knobs (so their models stay fresh but their actions don't interfere).
func (co *Coordinator) Observe(output float64) {
	if len(co.controllers) == 0 {
		return
	}
	for i, c := range co.controllers {
		if i == co.next {
			c.Observe(output)
		} else {
			c.lastOut = output
			c.lastKnob = c.Knob
			c.seeded = true
		}
	}
	co.next = (co.next + 1) % len(co.controllers)
}
