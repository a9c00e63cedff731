// Package geo provides 2-D geometry, spatial indexing, terrain maps, and
// mobility models for the battlefield simulator.
//
// Distances are in meters and the coordinate system is a flat plane,
// which is adequate for the city-to-region scales the experiments use.
package geo

import (
	"fmt"
	"math"
)

// Point is a position on the plane, in meters.
type Point struct {
	X, Y float64
}

// Add returns p translated by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared distance (cheaper when only comparing).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Vec is a displacement on the plane, in meters.
type Vec struct {
	DX, DY float64
}

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.DX * k, v.DY * k} }

// Len returns the vector's length.
func (v Vec) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Unit returns the unit vector in v's direction, or the zero vector if v
// has zero length.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return Vec{v.DX / l, v.DY / l}
}

// Rect is an axis-aligned rectangle. Min is inclusive, Max exclusive for
// containment purposes; a degenerate rectangle contains nothing.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns the point inside r closest to p.
func (r Rect) Clamp(p Point) Point {
	x := math.Max(r.Min.X, math.Min(p.X, r.Max.X))
	y := math.Max(r.Min.Y, math.Min(p.Y, r.Max.Y))
	return Point{x, y}
}

// Circle is a disk used for sensor footprints and jamming fields.
type Circle struct {
	Center Point
	Radius float64
}

// Contains reports whether p lies inside the circle.
func (c Circle) Contains(p Point) bool {
	return c.Center.Dist2(p) <= c.Radius*c.Radius
}
