package compose

import (
	"math"
	"slices"
	"testing"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// bruteCover is the oracle CoverLists must equal: every cell whose
// centre is within SenseRange of the candidate by the exact rule, when
// the candidate has a modality the goal asks for.
func bruteCover(req Requirements, c Candidate) []int32 {
	g := req.Goal
	if g.Modalities != 0 && c.Caps.Modalities&g.Modalities == 0 {
		return nil
	}
	var out []int32
	for ci, cell := range req.Cells {
		if c.Pos.Dist(cell) <= c.Caps.SenseRange {
			out = append(out, int32(ci))
		}
	}
	return out
}

// checkCoverLists fails t unless CoverLists over pool equals the oracle
// for every candidate, and covers (Evaluate's rule) agrees with it on
// every cell.
func checkCoverLists(t *testing.T, req Requirements, pool []Candidate) {
	t.Helper()
	lists := req.CoverLists(pool)
	if len(lists) != len(pool) {
		t.Fatalf("%d lists for %d candidates", len(lists), len(pool))
	}
	for i, c := range pool {
		want := bruteCover(req, c)
		if !slices.Equal(lists[i], want) {
			t.Fatalf("candidate %d at %v range %v: cover list %v, brute force %v", i, c.Pos, c.Caps.SenseRange, lists[i], want)
		}
		for ci, cell := range req.Cells {
			if got := c.covers(req.Goal.Modalities, cell); got != slices.Contains(want, int32(ci)) {
				t.Fatalf("candidate %d at %v range %v: covers(cell %d at %v) = %v, brute force disagrees", i, c.Pos, c.Caps.SenseRange, ci, cell, got)
			}
		}
	}
}

func sensor(pos geo.Point, senseRange float64) Candidate {
	return Candidate{Pos: pos, Caps: asset.Capabilities{Modalities: asset.ModVisual, SenseRange: senseRange}}
}

func TestCoverListsMatchBruteForce(t *testing.T) {
	t.Run("seeded_pools", func(t *testing.T) {
		for _, seed := range []int64{1, 7, 42} {
			g, pool := e2Pool(seed, 1000)
			checkCoverLists(t, Derive(g), pool)
			g.Modalities = asset.ModAcoustic | asset.ModRF
			checkCoverLists(t, Derive(g), pool)
		}
		for seed := int64(0); seed < 20; seed++ {
			req, pool := randomInstance(seed)
			checkCoverLists(t, req, pool)
		}
	})
	t.Run("range_on_a_centre", func(t *testing.T) {
		req := Derive(areaGoal())
		rng := sim.NewRNG(3)
		var pool []Candidate
		for i := 0; i < 200; i++ {
			p := geo.Point{X: rng.Uniform(-100, 1100), Y: rng.Uniform(-100, 1100)}
			d := p.Dist(req.Cells[rng.Intn(len(req.Cells))])
			for _, r := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
				pool = append(pool, sensor(p, r))
			}
		}
		// On a centre, and a whole number of cells from it on one axis.
		c := req.Cells[100]
		pool = append(pool, sensor(c, 0), sensor(c, req.Cells[103].X-c.X), sensor(c, req.Cells[100+3*req.cols].Y-c.Y))
		checkCoverLists(t, req, pool)
	})
	t.Run("degenerate_ranges", func(t *testing.T) {
		req := Derive(areaGoal())
		var pool []Candidate
		for _, p := range []geo.Point{req.Cells[0], req.Cells[517], {X: 500, Y: 500}, {X: -50, Y: 2000}} {
			for _, r := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, 5e-324, math.MaxFloat64} {
				pool = append(pool, sensor(p, r))
			}
		}
		checkCoverLists(t, req, pool)
	})
	t.Run("far_outside", func(t *testing.T) {
		req := Derive(areaGoal())
		var pool []Candidate
		for _, p := range []geo.Point{
			{X: 1e6, Y: -1e6}, {X: -3000, Y: 500}, {X: 500, Y: 1e12}, {X: 1e300, Y: 1e300},
			{X: math.Inf(1), Y: 0}, {X: 0, Y: math.Inf(-1)}, {X: math.NaN(), Y: 500}, {X: math.NaN(), Y: math.Inf(1)},
		} {
			for _, r := range []float64{100, 1.5e6, 1e12, 1e300, math.Inf(1)} {
				pool = append(pool, sensor(p, r))
			}
		}
		checkCoverLists(t, req, pool)
	})
	t.Run("one_row_and_one_column", func(t *testing.T) {
		// The last area came from FuzzCoverLists: its centres are not
		// binary fractions, so their distances round.
		for i, area := range []geo.Rect{
			{Max: geo.Point{X: 1000, Y: 10}},
			{Max: geo.Point{X: 10, Y: 1000}},
			{Max: geo.Point{X: 57, Y: 897}},
			{Min: geo.Point{X: 60.0 / 7}, Max: geo.Point{X: 1000.0 / 3, Y: 10}},
		} {
			g := areaGoal()
			g.Area = area
			req := Derive(g)
			rng := sim.NewRNG(int64(i))
			var pool []Candidate
			for i := 0; i < 300; i++ {
				p := geo.Point{X: rng.Uniform(area.Min.X-50, area.Max.X+50), Y: rng.Uniform(area.Min.Y-50, area.Max.Y+50)}
				// Ranges exactly to a cell, from anywhere and from the
				// cell's own row and column, where Dist is one axis.
				cell := req.Cells[rng.Intn(len(req.Cells))]
				pool = append(pool, sensor(p, rng.Uniform(0, 120)), sensor(p, p.Dist(cell)))
				for _, q := range []geo.Point{{X: p.X, Y: cell.Y}, {X: cell.X, Y: p.Y}} {
					pool = append(pool, sensor(q, q.Dist(cell)))
				}
			}
			checkCoverLists(t, req, pool)
		}
	})
	t.Run("non_finite_grid", func(t *testing.T) {
		g := areaGoal()
		g.Area = geo.NewRect(geo.Point{X: -1e308, Y: 0}, geo.Point{X: 1e308, Y: 1000})
		req := Derive(g) // the width overflows: every centre has X = +Inf
		if req.cols != 0 || len(req.Cells) == 0 {
			t.Fatalf("cols = %d over %d cells, want 0 over some", req.cols, len(req.Cells))
		}
		var pool []Candidate
		for _, p := range []geo.Point{{X: 0, Y: 500}, {X: math.Inf(1), Y: 500}, {X: math.NaN(), Y: math.Inf(-1)}} {
			for _, r := range []float64{100, 1e308, math.Inf(1)} {
				pool = append(pool, sensor(p, r))
			}
		}
		checkCoverLists(t, req, pool)
	})
	t.Run("modality_mismatch", func(t *testing.T) {
		req := Derive(areaGoal()) // asks for ModVisual
		deaf := sensor(geo.Point{X: 500, Y: 500}, math.Inf(1))
		deaf.Caps.Modalities = asset.ModAcoustic
		blind := deaf
		blind.Caps.Modalities = 0
		checkCoverLists(t, req, []Candidate{deaf, blind, sensor(geo.Point{X: 500, Y: 500}, 300)})
		if lists := req.CoverLists([]Candidate{deaf}); len(lists[0]) != 0 {
			t.Fatalf("a sensor without the goal's modality covers %d cells", len(lists[0]))
		}
	})
}

// FuzzCoverLists drives the area corners, one candidate's position and
// range, and the modalities on both sides against the brute-force
// oracle, with a second candidate at the area's centre so that lists
// sharing one backing array must not bleed into each other. A nonzero
// edge replaces the range by the candidate's distance to cell edge%N,
// nudged by -1, 0 or +1 ulp, so the exact rule's boundary is hit often.
func FuzzCoverLists(f *testing.F) {
	f.Add(0.0, 0.0, 1000.0, 1000.0, 500.0, 500.0, 180.0, uint16(asset.ModVisual), uint16(asset.ModVisual), uint16(0))
	f.Add(0.0, 0.0, 1000.0, 10.0, -20.0, 5.0, 64.0, uint16(0), uint16(asset.ModVisual), uint16(7))
	f.Add(0.0, 0.0, 57.0, 897.0, 28.5, 14.015625, 14.015625, uint16(asset.ModRF), uint16(asset.ModRF), uint16(1<<10|40))
	f.Add(200.0, 200.0, 2800.0, 2800.0, 1e6, -1e6, math.Inf(1), uint16(asset.ModVisual), uint16(asset.ModAcoustic), uint16(0))
	f.Add(-1e300, -1e300, 1e300, 1e300, 0.0, 0.0, 1e300, uint16(0), uint16(0), uint16(2<<10|600))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, px, py, r float64, goalMods, candMods, edge uint16) {
		g := Goal{
			Area:       geo.NewRect(geo.Point{X: ax, Y: ay}, geo.Point{X: bx, Y: by}),
			Modalities: asset.Modality(goalMods),
		}
		req := Derive(g)
		c := sensor(geo.Point{X: px, Y: py}, r)
		c.Caps.Modalities = asset.Modality(candMods)
		if edge != 0 && len(req.Cells) > 0 {
			d := c.Pos.Dist(req.Cells[int(edge)%len(req.Cells)])
			switch edge >> 10 % 3 {
			case 1:
				d = math.Nextafter(d, math.Inf(-1))
			case 2:
				d = math.Nextafter(d, math.Inf(1))
			}
			c.Caps.SenseRange = d
		}
		mid := c
		mid.Pos = g.Area.Center()
		checkCoverLists(t, req, []Candidate{c, mid, c})
	})
}

// TestCoverListsAllocationsFixed holds the builder to its two
// allocations, the list headers and one backing array, whatever the
// pool's size.
func TestCoverListsAllocationsFixed(t *testing.T) {
	allocs := func(n int) float64 {
		g, pool := e2Pool(42, n)
		req := Derive(g)
		return testing.AllocsPerRun(20, func() { req.CoverLists(pool) })
	}
	small, large := allocs(100), allocs(1000)
	if small != coverListAllocs || large != coverListAllocs {
		t.Fatalf("CoverLists allocates %.0f times for 100 candidates and %.0f for 1000, want %d for both", small, large, coverListAllocs)
	}
}

// coverListAllocs is the builder's fixed allocation count; benchtab's
// compose_cover_lists row pins the same number.
const coverListAllocs = 2

// BenchmarkCoverLists mirrors benchtab's compose_cover_lists row: the
// cover lists of an E2 pool of 1,000 assets over its derived 32×32 grid.
func BenchmarkCoverLists(b *testing.B) {
	g, pool := e2Pool(42, 1000)
	req := Derive(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverSink = req.CoverLists(pool)
	}
}

var coverSink [][]int32
