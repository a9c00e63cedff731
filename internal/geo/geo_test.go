package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := p.Add(Vec{3, 4})
	if q != (Point{4, 6}) {
		t.Errorf("Add = %v", q)
	}
	v := q.Sub(p)
	if v != (Vec{3, 4}) {
		t.Errorf("Sub = %v", v)
	}
	if d := p.Dist(q); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(q); math.Abs(d2-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}

func TestVecUnit(t *testing.T) {
	u := Vec{3, 4}.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Errorf("unit length = %v", u.Len())
	}
	if z := (Vec{}).Unit(); z != (Vec{}) {
		t.Errorf("zero vec unit = %v", z)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 0})
	if r.Min != (Point{0, 0}) || r.Max != (Point{10, 20}) {
		t.Fatalf("NewRect normalized wrong: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 20 || r.Area() != 200 {
		t.Error("dimensions wrong")
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{10, 5}) || r.Contains(Point{-1, 5}) {
		t.Error("Contains wrong")
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if got := r.Clamp(Point{-5, 5}); got != (Point{0, 5}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{20, 20}); got != (Point{10, 10}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{3, 4}); got != (Point{3, 4}) {
		t.Errorf("Clamp moved interior point: %v", got)
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 5}
	if !c.Contains(Point{3, 4}) {
		t.Error("boundary point should be contained")
	}
	if c.Contains(Point{4, 4}) {
		t.Error("exterior point contained")
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestDistanceMetricProperties(t *testing.T) {
	prop := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPointString(t *testing.T) {
	if (Point{X: 1.25, Y: 2}).String() == "" {
		t.Error("empty String")
	}
}

func TestVecScale(t *testing.T) {
	v := Vec{DX: 1, DY: -2}.Scale(3)
	if v != (Vec{DX: 3, DY: -6}) {
		t.Errorf("Scale = %v", v)
	}
}
