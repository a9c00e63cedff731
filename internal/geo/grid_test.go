package geo

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"iobt/internal/sim"
)

func newTestGrid() *Grid {
	return NewGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 50)
}

func TestGridInsertNear(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Insert(2, Point{110, 100})
	g.Insert(3, Point{500, 500})
	got := g.Near(nil, Point{100, 100}, 20)
	if len(got) != 2 {
		t.Fatalf("Near = %v, want ids 1,2", got)
	}
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridMove(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Move(1, Point{900, 900})
	if ids := g.Near(nil, Point{100, 100}, 50); len(ids) != 0 {
		t.Errorf("stale position found: %v", ids)
	}
	if ids := g.Near(nil, Point{900, 900}, 50); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("moved position not found: %v", ids)
	}
	p, ok := g.Position(1)
	if !ok || p != (Point{900, 900}) {
		t.Errorf("Position = %v, %v", p, ok)
	}
}

func TestGridMoveUnknownInserts(t *testing.T) {
	g := newTestGrid()
	g.Move(7, Point{10, 10})
	if g.Len() != 1 {
		t.Error("Move of unknown id should insert")
	}
}

func TestGridRemove(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Remove(1)
	g.Remove(1) // idempotent
	if g.Len() != 0 {
		t.Errorf("Len = %d after remove", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Error("Position should report missing")
	}
}

func TestGridInsertTwiceMoves(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Insert(1, Point{700, 700})
	if g.Len() != 1 {
		t.Fatalf("duplicate insert produced %d entries", g.Len())
	}
	if ids := g.Near(nil, Point{700, 700}, 10); len(ids) != 1 {
		t.Error("re-insert did not move")
	}
}

func TestGridInRect(t *testing.T) {
	g := newTestGrid()
	g.Insert(1, Point{100, 100})
	g.Insert(2, Point{200, 200})
	g.Insert(3, Point{800, 800})
	got := g.InRect(nil, NewRect(Point{0, 0}, Point{300, 300}))
	if len(got) != 2 {
		t.Errorf("InRect = %v", got)
	}
}

func TestGridEdgePositions(t *testing.T) {
	g := newTestGrid()
	// Corners and outside points must not panic and must be queryable.
	g.Insert(1, Point{0, 0})
	g.Insert(2, Point{1000, 1000}) // on max edge (clamped cell)
	g.Insert(3, Point{-50, 2000})  // outside; clamped
	if g.Len() != 3 {
		t.Errorf("Len = %d", g.Len())
	}
	if ids := g.Near(nil, Point{0, 0}, 1); len(ids) != 1 {
		t.Errorf("corner query = %v", ids)
	}
}

// Property: Near agrees with a brute-force scan.
func TestGridNearMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		g := newTestGrid()
		type entry struct {
			id int32
			p  Point
		}
		var all []entry
		for i := int32(0); i < 200; i++ {
			p := Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}
			g.Insert(i, p)
			all = append(all, entry{i, p})
		}
		center := Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}
		radius := rng.Uniform(0, 300)
		got := g.Near(nil, center, radius)
		var want []int32
		for _, e := range all {
			if e.p.Dist(center) <= radius {
				want = append(want, e.id)
			}
		}
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sortIDs(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func TestGridAccessorsAndDegenerate(t *testing.T) {
	g := newTestGrid()
	if g.Bounds().Width() != 1000 {
		t.Errorf("Bounds = %v", g.Bounds())
	}
	// Degenerate bounds fall back to unit cells without panicking.
	d := NewGrid(Rect{}, 0)
	d.Insert(1, Point{})
	if got := d.Near(nil, Point{}, 1); len(got) != 1 {
		t.Errorf("degenerate grid Near = %v", got)
	}
	// Negative radius returns nothing.
	if got := g.Near(nil, Point{X: 1, Y: 1}, -5); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}

// mapGrid is the reference the dense Grid must reproduce id for id and
// in order: the same cell lists, with positions kept in a map.
type mapGrid struct {
	g     *Grid // cell geometry only (cellOf, cols)
	cells [][]int32
	where map[int32]Point
}

func newMapGrid(g *Grid) *mapGrid {
	return &mapGrid{g: g, cells: make([][]int32, len(g.cells)), where: map[int32]Point{}}
}

func (m *mapGrid) insert(id int32, p Point) {
	if old, ok := m.where[id]; ok {
		if oc, nc := m.g.cellOf(old), m.g.cellOf(p); oc != nc {
			m.cells[oc] = removeID(m.cells[oc], id)
			m.cells[nc] = append(m.cells[nc], id)
		}
	} else {
		c := m.g.cellOf(p)
		m.cells[c] = append(m.cells[c], id)
	}
	m.where[id] = p
}

func (m *mapGrid) remove(id int32) {
	if p, ok := m.where[id]; ok {
		c := m.g.cellOf(p)
		m.cells[c] = removeID(m.cells[c], id)
		delete(m.where, id)
	}
}

// scan visits the cell block spanning lo..hi row by row and keeps the
// ids that pass.
func (m *mapGrid) scan(lo, hi Point, keep func(Point) bool) []int32 {
	minC, maxC := m.g.cellOf(lo), m.g.cellOf(hi)
	cols := m.g.cols
	var out []int32
	for cy := minC / cols; cy <= maxC/cols; cy++ {
		for cx := minC % cols; cx <= maxC%cols; cx++ {
			for _, id := range m.cells[cy*cols+cx] {
				if keep(m.where[id]) {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// The dense grid returns the same ids in the same order as the
// map-based reference over a random Insert/Move/Remove/re-Insert
// history. Order matters: discovery scans draw from their stream once
// per candidate, in Near's order.
func TestGridMatchesMapReferenceInOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		g := newTestGrid()
		ref := newMapGrid(g)
		// Mostly dense ids, plus a few sparse and large ones.
		pickID := func() int32 {
			switch rng.Intn(10) {
			case 0:
				return 1000 + int32(rng.Intn(5))*977
			case 1:
				return 60000 + int32(rng.Intn(3))
			default:
				return int32(rng.Intn(300))
			}
		}
		// Points stray outside the bounds: the grid clamps them to edge cells.
		pickPoint := func() Point { return Point{rng.Uniform(-50, 1050), rng.Uniform(-50, 1050)} }
		for op := 0; op < 4000; op++ {
			id, p := pickID(), pickPoint()
			switch rng.Intn(4) {
			case 0:
				g.Insert(id, p)
				ref.insert(id, p)
			case 1, 2:
				g.Move(id, p)
				ref.insert(id, p)
			case 3:
				g.Remove(id) // often an id never inserted, or already removed
				ref.remove(id)
			}
			if g.Len() != len(ref.where) {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, g.Len(), len(ref.where))
			}
			probe := pickID()
			gp, gok := g.Position(probe)
			rp, rok := ref.where[probe]
			if gok != rok || gp != rp {
				t.Fatalf("seed %d op %d: Position(%d) = %v %v, reference %v %v", seed, op, probe, gp, gok, rp, rok)
			}
			if op%20 != 0 {
				continue
			}
			c, radius := pickPoint(), rng.Uniform(0, 400)
			got := g.Near(nil, c, radius)
			want := ref.scan(Point{c.X - radius, c.Y - radius}, Point{c.X + radius, c.Y + radius},
				func(q Point) bool { return q.Dist2(c) <= radius*radius })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: Near(%v, %.1f)\n got %v\nwant %v", seed, op, c, radius, got, want)
			}
			r := NewRect(pickPoint(), pickPoint())
			got = g.InRect(nil, r)
			want = ref.scan(r.Min, r.Max, r.Contains)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: InRect(%v)\n got %v\nwant %v", seed, op, r, got, want)
			}
		}
	}
	if _, ok := newTestGrid().Position(-1); ok {
		t.Error("Position(-1) reported present")
	}
}
