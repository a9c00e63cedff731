package geo

import "iobt/internal/sim"

// TerrainKind selects how the environment attenuates radio signals and
// constrains movement.
type TerrainKind int

// Terrain kinds. The paper (§II "Varying scale") calls out two extremes:
// dense cluttered mega-cities and sparse open terrain.
const (
	TerrainOpen TerrainKind = iota + 1
	TerrainUrban
	TerrainSparse
)

// String returns the terrain kind name.
func (k TerrainKind) String() string {
	switch k {
	case TerrainOpen:
		return "open"
	case TerrainUrban:
		return "urban"
	case TerrainSparse:
		return "sparse"
	default:
		return "unknown"
	}
}

// Terrain is a battlefield map: an area, a clutter model for radio
// attenuation, and (for urban maps) a street grid that constrains
// movement.
type Terrain struct {
	Kind   TerrainKind
	Bounds Rect
	// Obstruction in [0,1] scales radio range: effective range is
	// range * (1 - Obstruction * clutter(p,q)).
	Obstruction float64
}

// NewOpenTerrain returns unobstructed flat terrain of the given extent.
func NewOpenTerrain(width, height float64) *Terrain {
	return &Terrain{
		Kind:   TerrainOpen,
		Bounds: NewRect(Point{0, 0}, Point{width, height}),
	}
}

// blockSize is the urban street-grid pitch in meters.
const blockSize = 100

// NewUrbanTerrain returns a mega-city style map: a street grid of
// blockSize blocks and heavy radio clutter.
func NewUrbanTerrain(width, height float64) *Terrain {
	return &Terrain{
		Kind:        TerrainUrban,
		Bounds:      NewRect(Point{0, 0}, Point{width, height}),
		Obstruction: 0.5,
	}
}

// NewSparseTerrain returns wide, lightly cluttered terrain modeling the
// paper's "sparse terrain with gaps in coverage" extreme.
func NewSparseTerrain(width, height float64) *Terrain {
	return &Terrain{
		Kind:        TerrainSparse,
		Bounds:      NewRect(Point{0, 0}, Point{width, height}),
		Obstruction: 0.15,
	}
}

// RangeFactor returns the multiplier (0,1] applied to nominal radio range
// for a link between p and q. Urban clutter worsens with the number of
// blocks crossed; open terrain is unobstructed.
func (t *Terrain) RangeFactor(p, q Point) float64 {
	if t.Obstruction <= 0 {
		return 1
	}
	clutter := 0.0
	switch t.Kind {
	case TerrainUrban:
		// Blocks crossed along each axis, saturating at 5.
		dx := absf(p.X-q.X) / blockSize
		dy := absf(p.Y-q.Y) / blockSize
		blocks := dx + dy
		if blocks > 5 {
			blocks = 5
		}
		clutter = blocks / 5
	case TerrainSparse:
		clutter = 0.5 // uniform light clutter
	default:
		clutter = 0
	}
	f := 1 - t.Obstruction*clutter
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// RandomPoint returns a uniform point in the terrain bounds.
func (t *Terrain) RandomPoint(rng *sim.RNG) Point {
	return Point{
		X: rng.Uniform(t.Bounds.Min.X, t.Bounds.Max.X),
		Y: rng.Uniform(t.Bounds.Min.Y, t.Bounds.Max.Y),
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
