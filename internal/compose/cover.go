package compose

import (
	"math"

	"iobt/internal/asset"
	"iobt/internal/geo"
)

// coverSlack widens the squared-distance bounds in covers and the
// sensing box in CoverLists, relative to the magnitudes involved, so
// that floating-point rounding (a few ulps, near 1e-16 relative) never
// lets a bound decide a point the exact rule would decide the other way.
// coverFloor is an absolute widening for magnitudes so small that the
// relative one underflows.
const (
	coverSlack = 1e-9
	coverFloor = 1e-300
)

// covers reports whether the candidate senses point p with one of the
// modalities mods (any, when mods is 0).
func (c *Candidate) covers(mods asset.Modality, p geo.Point) bool {
	return c.senses(mods) && c.inRange(p)
}

func (c *Candidate) senses(mods asset.Modality) bool {
	return mods == 0 || c.Caps.Modalities&mods != 0
}

// inRange is exactly Pos.Dist(p) <= SenseRange. A squared distance
// settles every point clearly outside or clearly inside the range, and
// only points within coverSlack of its edge pay for the exact Hypot.
func (c *Candidate) inRange(p geo.Point) bool {
	r := c.Caps.SenseRange
	dx, dy := c.Pos.X-p.X, c.Pos.Y-p.Y
	// Below 1e300 neither d2 nor the bounds overflow; NaN fails both
	// tests, and a negative range must not pass on its square.
	if d2 := dx*dx + dy*dy; d2 < 1e300 && r >= 0 {
		r2 := r * r
		if d2 > r2*(1+coverSlack)+coverFloor {
			return false
		}
		if d2 < r2*(1-coverSlack)-coverFloor {
			return true
		}
	}
	return c.Pos.Dist(p) <= r
}

// CoverLists returns, for each candidate, the ascending indices of the
// cells it covers: exactly {ci : pool[i].covers(Goal.Modalities,
// Cells[ci])}. It tests each candidate only against the cells of its
// sensing box, the grid rows and columns whose centres lie within
// SenseRange of it on each axis. Every list is a capacity-capped window
// of one shared backing array, so a call makes two allocations whatever
// the pool's size. The solvers and Recompose score candidates through
// it; benchtab pins its cost as compose_cover_lists.
func (req *Requirements) CoverLists(pool []Candidate) [][]int32 {
	lists := make([][]int32, len(pool))
	total := 0
	for i := range pool {
		r0, r1, c0, c1 := req.box(&pool[i])
		total += (r1 - r0) * (c1 - c0)
	}
	all := make([]int32, 0, total)
	for i := range pool {
		c := &pool[i]
		start := len(all)
		r0, r1, c0, c1 := req.box(c)
		for row := r0; row < r1; row++ {
			for ci := row*req.cols + c0; ci < row*req.cols+c1; ci++ {
				if c.inRange(req.Cells[ci]) {
					all = append(all, int32(ci))
				}
			}
		}
		lists[i] = all[start:len(all):len(all)]
	}
	return lists
}

// box returns the half-open row and column ranges of the cells c can
// cover: empty on a modality mismatch or a range no distance meets.
// Cells that Derive did not lay out as a finite grid (cols 0) are one
// row, taken whole.
func (req *Requirements) box(c *Candidate) (r0, r1, c0, c1 int) {
	if len(req.Cells) == 0 || !c.senses(req.Goal.Modalities) {
		return 0, 0, 0, 0
	}
	r := c.Caps.SenseRange
	if r < 0 || math.IsNaN(r) { // no distance is <= either
		return 0, 0, 0, 0
	}
	if req.cols == 0 {
		return 0, 1, 0, len(req.Cells)
	}
	cols, rows := req.cols, len(req.Cells)/req.cols
	// Hypot is never below either axis offset, so a covered centre lies
	// within r·(1+ε) of c on each axis; the slack, relative to the
	// coordinates as well, also absorbs the rounding of the bounds
	// themselves. A NaN bound is no bound.
	reach := func(x float64) (lo, hi float64) {
		w := r + coverSlack*(math.Abs(x)+r) + coverFloor
		return x - w, x + w
	}
	lo, hi := reach(c.Pos.X)
	c0, c1 = req.span(cols, 1, false, lo, hi)
	lo, hi = reach(c.Pos.Y)
	r0, r1 = req.span(rows, cols, true, lo, hi)
	if c0 >= c1 || r0 >= r1 {
		return 0, 0, 0, 0
	}
	return r0, r1, c0, c1
}

// span returns the half-open range [i, j) of the n grid lines, columns
// (stride 1, X) or rows (stride cols, Y), whose centre coordinate lies
// within [lo, hi]. The grid spacing gives a first guess of each end and
// a walk over the centres' own coordinates, which never decrease, makes
// it exact. A NaN bound excludes nothing.
func (req *Requirements) span(n, stride int, y bool, lo, hi float64) (i, j int) {
	at := func(k int) float64 {
		p := req.Cells[k*stride]
		if y {
			return p.Y
		}
		return p.X
	}
	first, step := at(0), 0.0
	if n > 1 {
		step = (at(n-1) - first) / float64(n-1)
	}
	guess := func(v float64) int {
		f := (v - first) / step
		if !(f > 0) {
			return 0
		}
		return int(min(f, float64(n)))
	}
	i = guess(lo)
	for i > 0 && !(at(i-1) < lo) {
		i--
	}
	for i < n && at(i) < lo {
		i++
	}
	j = max(guess(hi), i)
	for j > i && at(j-1) > hi {
		j--
	}
	for j < n && !(at(j) > hi) {
		j++
	}
	return i, j
}
