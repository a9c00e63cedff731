package geo

import "math"

// Grid is a uniform spatial hash over a bounded area: O(1) insert/move
// and neighborhood queries that only touch nearby cells. It is the index
// used for radio-range neighbor discovery over thousands of nodes.
//
// Ids must be non-negative. Positions live in a slice indexed by id, so
// storage is proportional to the largest id ever inserted: callers number
// their points densely from 0 (asset and shard-node ids do).
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32 // cell -> ids
	where    []Point   // id -> position, valid where present[id]
	present  []bool    // id -> indexed now
	n        int       // number of present ids
}

// NewGrid returns a grid over bounds with the given cell size. A
// non-positive cell size defaults to 1/32 of the larger dimension.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = math.Max(bounds.Width(), bounds.Height()) / 32
		if cellSize <= 0 {
			cellSize = 1
		}
	}
	cols := int(math.Ceil(bounds.Width()/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height()/cellSize)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
	}
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

func (g *Grid) has(id int32) bool { return id >= 0 && int(id) < len(g.present) && g.present[id] }

// Bounds returns the indexed area.
func (g *Grid) Bounds() Rect { return g.bounds }

func (g *Grid) cellOf(p Point) int {
	p = g.bounds.Clamp(p)
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Insert adds id at position p. Inserting an existing id moves it.
func (g *Grid) Insert(id int32, p Point) {
	if g.has(id) {
		g.Move(id, p)
		return
	}
	if grow := int(id) + 1 - len(g.where); grow > 0 {
		g.where = append(g.where, make([]Point, grow)...)
		g.present = append(g.present, make([]bool, grow)...)
	}
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], id)
	g.where[id] = p
	g.present[id] = true
	g.n++
}

// Remove deletes id from the index. Removing an unknown id is a no-op.
func (g *Grid) Remove(id int32) {
	if !g.has(id) {
		return
	}
	c := g.cellOf(g.where[id])
	g.cells[c] = removeID(g.cells[c], id)
	g.present[id] = false
	g.n--
}

// Move updates id's position. Unknown ids are inserted.
func (g *Grid) Move(id int32, p Point) {
	if !g.has(id) {
		g.Insert(id, p)
		return
	}
	oc, nc := g.cellOf(g.where[id]), g.cellOf(p)
	if oc != nc {
		g.cells[oc] = removeID(g.cells[oc], id)
		g.cells[nc] = append(g.cells[nc], id)
	}
	g.where[id] = p
}

// Position returns the indexed position of id.
func (g *Grid) Position(id int32) (Point, bool) {
	if !g.has(id) {
		return Point{}, false
	}
	return g.where[id], true
}

// Near appends to dst all ids within radius of p (excluding none) and
// returns the extended slice. Results come cell by cell (rows then
// columns, ascending) and within a cell in its list order, which Insert
// appends to and Remove/Move swap-delete from. Discovery scans still
// depend on that order (discovery.Service.Scan draws from its stream once
// per candidate, in the order Near yields them), so a change here must
// reproduce it exactly for a fixed Insert/Move/Remove history. Mesh
// neighbour lists no longer do: mesh.Network.Refresh sorts by id and does
// not query the grid, and shardnet sorts what it reads at set-up.
func (g *Grid) Near(dst []int32, p Point, radius float64) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	minC := g.cellOf(Point{p.X - radius, p.Y - radius})
	maxC := g.cellOf(Point{p.X + radius, p.Y + radius})
	minCX, minCY := minC%g.cols, minC/g.cols
	maxCX, maxCY := maxC%g.cols, maxC/g.cols
	where := g.where
	for cy := minCY; cy <= maxCY; cy++ {
		for _, cell := range g.cells[cy*g.cols+minCX : cy*g.cols+maxCX+1] {
			for _, id := range cell {
				if where[id].Dist2(p) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// InRect appends all ids inside r to dst and returns the extended slice.
func (g *Grid) InRect(dst []int32, r Rect) []int32 {
	minC := g.cellOf(r.Min)
	maxC := g.cellOf(Point{r.Max.X, r.Max.Y})
	minCX, minCY := minC%g.cols, minC/g.cols
	maxCX, maxCY := maxC%g.cols, maxC/g.cols
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if r.Contains(g.where[id]) {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

func removeID(s []int32, id int32) []int32 {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
