package mesh

import (
	"slices"

	"iobt/internal/geo"
)

// cellIndex is a frozen uniform grid over one snapshot's up endpoints,
// rebuilt by each table build. The points are packed in cell
// order behind one offset per cell, so the cells [x0, x1] of a grid row
// are one contiguous run of pts and a range query is one such run per
// row. It has no Insert or Move: nothing outlives the build.
//
// Cell geometry decides only how much a query scans, never what a build
// finds: every candidate goes through the link rule and the table is
// sorted, so the cell size is a speed knob with no effect on results.
type cellIndex struct {
	min        geo.Point
	perMeter   float64 // cells per meter
	cols, rows int
	// Cell c holds pts[start[c]:start[c+1]]. The array has one spare
	// slot at the end for build's counting pass.
	start []int32
	pts   []cellPoint
}

// cellPoint is what a scan needs to dismiss a point without leaving the
// run: where it is, how far its radio reaches, whose it is.
type cellPoint struct {
	pos   geo.Point
	radio float64
	id    int32
}

// cellsPerSide matches geo.Grid's default: about two assets a cell on
// the 1000-asset missions, a handful of rows per mote-range query.
const cellsPerSide = 32

func newCellIndex(bounds geo.Rect) cellIndex {
	size := max(bounds.Width(), bounds.Height()) / cellsPerSide
	if !(size > 0) {
		size = 1
	}
	ix := cellIndex{min: bounds.Min, perMeter: 1 / size}
	ix.cols = clampCell(bounds.Width()*ix.perMeter, cellsPerSide) + 1
	ix.rows = clampCell(bounds.Height()*ix.perMeter, cellsPerSide) + 1
	ix.start = make([]int32, ix.cols*ix.rows+2)
	return ix
}

// clampCell maps a coordinate in cells to a cell number in [0, n). It is
// monotone over every float, NaN and the infinities included (NaN maps
// to 0), so a box query over clamped corners still covers every point
// whose true coordinates lie in the box.
func clampCell(x float64, n int) int {
	if !(x > 0) {
		return 0
	}
	if x >= float64(n) {
		return n - 1
	}
	return int(x)
}

func (ix *cellIndex) col(x float64) int { return clampCell((x-ix.min.X)*ix.perMeter, ix.cols) }
func (ix *cellIndex) row(y float64) int { return clampCell((y-ix.min.Y)*ix.perMeter, ix.rows) }

// build indexes the up endpoints of ends: a counting sort by cell, ids
// ascending within a cell, into storage sized once for all of ends (a
// node that is down now may be up next tick). Counts go two
// slots past their cell, so after the prefix sum start[c+1] is where
// cell c begins and serves as its write cursor; once every point is
// placed it has advanced to where cell c+1 begins, which is what
// start[c+1] must read.
//
//iobt:hot
func (ix *cellIndex) build(ends []endpoint) {
	clear(ix.start)
	up := 0
	for i := range ends {
		if e := &ends[i]; e.up {
			ix.start[ix.row(e.pos.Y)*ix.cols+ix.col(e.pos.X)+2]++
			up++
		}
	}
	for c := 2; c < len(ix.start); c++ {
		ix.start[c] += ix.start[c-1]
	}
	if cap(ix.pts) < len(ends) {
		ix.pts = slices.Grow(ix.pts[:0], len(ends))
	}
	ix.pts = ix.pts[:up]
	for i := range ends {
		if e := &ends[i]; e.up {
			at := &ix.start[ix.row(e.pos.Y)*ix.cols+ix.col(e.pos.X)+1]
			ix.pts[*at] = cellPoint{pos: e.pos, radio: e.radio, id: int32(i)}
			*at++
		}
	}
}
