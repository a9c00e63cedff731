package iobt

// Ablation benchmarks: each pair (or set) isolates one design choice
// DESIGN.md calls out, so the cost/benefit of the mechanism is
// measurable rather than asserted.

import (
	"testing"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/geo"
	"iobt/internal/learn"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/tomo"
)

// --- spatial index: grid hash vs. brute force neighbor queries ---

func neighborWorld(n int) (*geo.Grid, []geo.Point) {
	rng := sim.NewRNG(1)
	g := geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: 5000, Y: 5000}), 0)
	pts := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geo.Point{X: rng.Uniform(0, 5000), Y: rng.Uniform(0, 5000)}
		g.Insert(int32(i), pts[i])
	}
	return g, pts
}

func BenchmarkAblationGridIndex(b *testing.B) {
	g, _ := neighborWorld(10000)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Near(buf[:0], geo.Point{X: 2500, Y: 2500}, 200)
	}
}

func BenchmarkAblationBruteForceScan(b *testing.B) {
	_, pts := neighborWorld(10000)
	center := geo.Point{X: 2500, Y: 2500}
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j, p := range pts {
			if p.Dist(center) <= 200 {
				buf = append(buf, int32(j))
			}
		}
	}
}

// --- routing: cold BFS vs. cached BFS ---

func routingWorld(b *testing.B) (*mesh.Network, []mesh.NodeID) {
	b.Helper()
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(3000, 3000)
	pop := asset.Generate(terr, asset.DefaultMix(2000), eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	ids := net.Nodes()
	if len(ids) < 2 {
		b.Skip("degenerate world")
	}
	return net, ids
}

func BenchmarkAblationRouteBFS(b *testing.B) {
	net, ids := routingWorld(b)
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Refresh() // defeat cache: cold-path routing cost
		_ = net.Route(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
	}
}

func BenchmarkAblationRouteBFSCached(b *testing.B) {
	net, ids := routingWorld(b)
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Route(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))])
	}
}

// --- composition: greedy vs. random ---

func compositionInstance() (compose.Requirements, []compose.Candidate) {
	terr := geo.NewUrbanTerrain(2000, 2000)
	rng := sim.NewRNG(3)
	pop := asset.Generate(terr, asset.DefaultMix(1500), rng)
	goal := compose.Goal{
		Area:         geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1800, Y: 1800}),
		CoverageFrac: 0.55,
	}
	return compose.Derive(goal), compose.PoolFromPopulation(pop, nil)
}

func BenchmarkAblationComposeGreedy(b *testing.B) {
	req, pool := compositionInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = compose.GreedySolver{}.Solve(req, pool)
	}
}

func BenchmarkAblationComposeRandom(b *testing.B) {
	req, pool := compositionInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = compose.RandomSolver{RNG: sim.NewRNG(int64(i))}.Solve(req, pool)
	}
}

// --- recomposition: incremental repair vs. full re-solve ---

func BenchmarkAblationRecomposeIncremental(b *testing.B) {
	req, pool := compositionInstance()
	comp, err := compose.GreedySolver{}.Solve(req, pool)
	if err != nil {
		b.Skip("infeasible instance")
	}
	failed := map[asset.ID]bool{}
	for i, id := range comp.Members {
		if i%5 == 0 {
			failed[id] = true
		}
	}
	var survivors []compose.Candidate
	for _, c := range pool {
		if !failed[c.ID] {
			survivors = append(survivors, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = compose.Recompose(req, comp, failed, survivors)
	}
}

func BenchmarkAblationRecomposeFullSolve(b *testing.B) {
	req, pool := compositionInstance()
	comp, err := compose.GreedySolver{}.Solve(req, pool)
	if err != nil {
		b.Skip("infeasible instance")
	}
	failed := map[asset.ID]bool{}
	for i, id := range comp.Members {
		if i%5 == 0 {
			failed[id] = true
		}
	}
	var survivors []compose.Candidate
	for _, c := range pool {
		if !failed[c.ID] {
			survivors = append(survivors, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = compose.GreedySolver{}.Solve(req, survivors)
	}
}

// --- federated aggregation cost: mean vs. median vs. krum ---

func aggregationUpdates() [][]float64 {
	rng := sim.NewRNG(4)
	updates := make([][]float64, 50)
	for i := range updates {
		updates[i] = make([]float64, 200)
		for j := range updates[i] {
			updates[i][j] = rng.Norm(0, 1)
		}
	}
	return updates
}

func BenchmarkAblationAggMean(b *testing.B) {
	u := aggregationUpdates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (learn.MeanAgg{}).Aggregate(u)
	}
}

func BenchmarkAblationAggMedian(b *testing.B) {
	u := aggregationUpdates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (learn.MedianAgg{}).Aggregate(u)
	}
}

func BenchmarkAblationAggKrum(b *testing.B) {
	u := aggregationUpdates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (learn.KrumAgg{F: 10}).Aggregate(u)
	}
}

// --- tomography: passive snapshot vs. active probing rounds ---

func BenchmarkAblationTomoSnapshot(b *testing.B) {
	eng := sim.NewEngine(6)
	terr := geo.NewOpenTerrain(900, 900)
	pop := asset.Generate(terr, asset.DefaultMix(300), eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	monitors := net.Nodes()
	if len(monitors) > 8 {
		monitors = monitors[:8]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tomo.CollectPaths(net, monitors)
	}
}
