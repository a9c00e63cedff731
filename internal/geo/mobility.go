package geo

import (
	"time"

	"iobt/internal/sim"
)

// Mobility produces a node's position as a function of virtual time.
// Implementations are stepped by the world at a fixed cadence; Step
// returns the new position after dt has elapsed.
type Mobility interface {
	// Step advances the model by dt and returns the new position.
	Step(dt time.Duration) Point
	// Pos returns the current position without advancing.
	Pos() Point
}

// Static is a node that never moves.
type Static struct{ P Point }

var _ Mobility = (*Static)(nil)

// Step returns the fixed position.
func (s *Static) Step(time.Duration) Point { return s.P }

// Pos returns the fixed position.
func (s *Static) Pos() Point { return s.P }

// RandomWaypoint implements the classic random-waypoint model: pick a
// uniform destination, travel at a uniform speed, pause, repeat.
type RandomWaypoint struct {
	terrain  *Terrain
	rng      *sim.RNG
	pos      Point
	dest     Point
	speed    float64 // m/s
	minSpeed float64
	maxSpeed float64
	pause    time.Duration
	resting  time.Duration
}

var _ Mobility = (*RandomWaypoint)(nil)

// NewRandomWaypoint returns a walker starting at start with speeds drawn
// uniformly from [minSpeed,maxSpeed] m/s and the given pause time at each
// waypoint.
func NewRandomWaypoint(t *Terrain, rng *sim.RNG, start Point, minSpeed, maxSpeed float64, pause time.Duration) *RandomWaypoint {
	if minSpeed <= 0 {
		minSpeed = 0.5
	}
	if maxSpeed < minSpeed {
		maxSpeed = minSpeed
	}
	w := &RandomWaypoint{
		terrain:  t,
		rng:      rng,
		pos:      t.Bounds.Clamp(start),
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		pause:    pause,
	}
	w.pickDest()
	return w
}

func (w *RandomWaypoint) pickDest() {
	w.dest = w.terrain.RandomPoint(w.rng)
	w.speed = w.rng.Uniform(w.minSpeed, w.maxSpeed)
}

// Pos returns the current position.
func (w *RandomWaypoint) Pos() Point { return w.pos }

// Step advances the walker by dt.
func (w *RandomWaypoint) Step(dt time.Duration) Point {
	if w.resting > 0 {
		if dt <= w.resting {
			w.resting -= dt
			return w.pos
		}
		dt -= w.resting
		w.resting = 0
	}
	dist := w.speed * dt.Seconds()
	to := w.dest.Sub(w.pos)
	if to.Len() <= dist {
		w.pos = w.dest
		w.resting = w.pause
		w.pickDest()
		return w.pos
	}
	w.pos = w.pos.Add(to.Unit().Scale(dist))
	return w.pos
}

// Patrol moves a node around a fixed cyclic route at constant speed,
// modeling guard and UAV orbits.
type Patrol struct {
	route []Point
	pos   Point
	next  int
	speed float64
}

var _ Mobility = (*Patrol)(nil)

// NewPatrol returns a patroller over route at speed m/s. The route must
// have at least one point; a single point behaves like Static.
func NewPatrol(route []Point, speed float64) *Patrol {
	r := make([]Point, len(route))
	copy(r, route)
	p := &Patrol{route: r, speed: speed}
	if len(r) > 0 {
		p.pos = r[0]
		p.next = 1 % len(r)
	}
	return p
}

// Pos returns the current position.
func (p *Patrol) Pos() Point { return p.pos }

// Step advances the patrol by dt.
func (p *Patrol) Step(dt time.Duration) Point {
	if len(p.route) < 2 || p.speed <= 0 {
		return p.pos
	}
	dist := p.speed * dt.Seconds()
	for dist > 0 {
		target := p.route[p.next]
		to := target.Sub(p.pos)
		l := to.Len()
		if l <= dist {
			p.pos = target
			dist -= l
			p.next = (p.next + 1) % len(p.route)
			continue
		}
		p.pos = p.pos.Add(to.Unit().Scale(dist))
		dist = 0
	}
	return p.pos
}
