package geo

import (
	"math"
	"testing"
	"time"

	"iobt/internal/sim"
)

func TestStatic(t *testing.T) {
	s := &Static{P: Point{5, 5}}
	if s.Step(time.Hour) != (Point{5, 5}) || s.Pos() != (Point{5, 5}) {
		t.Error("static node moved")
	}
}

func TestRandomWaypointStaysInBounds(t *testing.T) {
	terr := NewOpenTerrain(1000, 1000)
	rng := sim.NewRNG(1)
	w := NewRandomWaypoint(terr, rng, Point{500, 500}, 1, 10, time.Second)
	for i := 0; i < 5000; i++ {
		p := w.Step(time.Second)
		if !terr.Bounds.Contains(p) && p != terr.Bounds.Max {
			// Clamp semantics allow boundary equality.
			if p.X < 0 || p.Y < 0 || p.X > 1000 || p.Y > 1000 {
				t.Fatalf("escaped bounds at %v", p)
			}
		}
	}
}

func TestRandomWaypointSpeedRespected(t *testing.T) {
	terr := NewOpenTerrain(10000, 10000)
	rng := sim.NewRNG(2)
	const maxSpeed = 5.0
	w := NewRandomWaypoint(terr, rng, Point{5000, 5000}, 1, maxSpeed, 0)
	prev := w.Pos()
	for i := 0; i < 1000; i++ {
		cur := w.Step(time.Second)
		if d := cur.Dist(prev); d > maxSpeed+1e-9 {
			t.Fatalf("moved %v m in 1s, max %v", d, maxSpeed)
		}
		prev = cur
	}
}

func TestRandomWaypointPauses(t *testing.T) {
	terr := NewOpenTerrain(100, 100)
	rng := sim.NewRNG(3)
	w := NewRandomWaypoint(terr, rng, Point{50, 50}, 10, 10, time.Minute)
	// Walk until a waypoint is reached (position == dest triggers rest).
	var atRest bool
	for i := 0; i < 10000; i++ {
		before := w.Pos()
		after := w.Step(100 * time.Millisecond)
		if w.resting > 0 && before == after {
			atRest = true
			break
		}
	}
	if !atRest {
		t.Error("walker never paused at a waypoint")
	}
}

func TestPatrolCycles(t *testing.T) {
	route := []Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}
	p := NewPatrol(route, 10)
	if p.Pos() != (Point{0, 0}) {
		t.Fatalf("start = %v", p.Pos())
	}
	// Perimeter is 400 m at 10 m/s -> 40 s per lap.
	p.Step(40 * time.Second)
	if d := p.Pos().Dist(Point{0, 0}); d > 1e-6 {
		t.Errorf("after one lap at %v, dist from start %v", p.Pos(), d)
	}
	p.Step(10 * time.Second)
	if d := p.Pos().Dist(Point{100, 0}); d > 1e-6 {
		t.Errorf("quarter lap position = %v", p.Pos())
	}
}

func TestPatrolDegenerate(t *testing.T) {
	p := NewPatrol([]Point{{5, 5}}, 10)
	if p.Step(time.Hour) != (Point{5, 5}) {
		t.Error("single-point patrol moved")
	}
	empty := NewPatrol(nil, 10)
	_ = empty.Step(time.Second) // must not panic
}

func TestPatrolCopiesRoute(t *testing.T) {
	route := []Point{{0, 0}, {10, 0}}
	p := NewPatrol(route, 1)
	route[1] = Point{999, 999}
	p.Step(10 * time.Second)
	if p.Pos().Dist(Point{10, 0}) > 1e-6 {
		t.Error("patrol aliased caller's route slice")
	}
}

func TestTerrainRangeFactor(t *testing.T) {
	open := NewOpenTerrain(1000, 1000)
	if f := open.RangeFactor(Point{0, 0}, Point{900, 900}); f != 1 {
		t.Errorf("open terrain factor = %v", f)
	}
	urban := NewUrbanTerrain(1000, 1000)
	near := urban.RangeFactor(Point{0, 0}, Point{10, 10})
	far := urban.RangeFactor(Point{0, 0}, Point{900, 900})
	if !(far < near && near <= 1) {
		t.Errorf("urban clutter not monotone: near=%v far=%v", near, far)
	}
	if far < 0.05 {
		t.Errorf("factor below floor: %v", far)
	}
	sparse := NewSparseTerrain(1000, 1000)
	if f := sparse.RangeFactor(Point{0, 0}, Point{900, 900}); !(f > 0.8 && f < 1) {
		t.Errorf("sparse factor = %v", f)
	}
}

func TestRandomPointInBounds(t *testing.T) {
	terr := NewUrbanTerrain(500, 300)
	rng := sim.NewRNG(4)
	for i := 0; i < 1000; i++ {
		p := terr.RandomPoint(rng)
		if p.X < 0 || p.X >= 500 || p.Y < 0 || p.Y >= 300 {
			t.Fatalf("point out of bounds: %v", p)
		}
	}
}

func TestAbsf(t *testing.T) {
	if absf(-3) != 3 || absf(3) != 3 || absf(0) != 0 {
		t.Error("absf wrong")
	}
	if !math.IsInf(absf(math.Inf(-1)), 1) {
		t.Error("absf(-inf) should be +inf")
	}
}

func TestTerrainKindString(t *testing.T) {
	if TerrainOpen.String() != "open" || TerrainUrban.String() != "urban" ||
		TerrainSparse.String() != "sparse" || TerrainKind(0).String() != "unknown" {
		t.Error("terrain kind names wrong")
	}
}

// TestNewUrbanTerrainDefaults: the urban street grid has 100m blocks,
// and clutter saturates at five blocks crossed.
func TestNewUrbanTerrainDefaults(t *testing.T) {
	u := NewUrbanTerrain(1000, 1000)
	if f := u.RangeFactor(Point{0, 0}, Point{100, 0}); math.Abs(f-0.9) > 1e-12 {
		t.Errorf("one block crossed: factor %v, want 0.9", f)
	}
	if f := u.RangeFactor(Point{0, 0}, Point{300, 300}); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("six blocks crossed: factor %v, want the 0.5 floor of saturated clutter", f)
	}
}

func TestRandomWaypointClampedSpeeds(t *testing.T) {
	terr := NewOpenTerrain(100, 100)
	rng := sim.NewRNG(9)
	// Invalid speeds fall back to sane defaults.
	w := NewRandomWaypoint(terr, rng, Point{X: 50, Y: 50}, -1, -2, 0)
	if w.minSpeed <= 0 || w.maxSpeed < w.minSpeed {
		t.Errorf("speed clamping failed: %v..%v", w.minSpeed, w.maxSpeed)
	}
}
