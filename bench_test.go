// Package iobt's root benchmark suite: one testing.B benchmark per
// experiment table (DESIGN.md §4, E1..E15), each running the same
// harness as cmd/benchtab in quick mode, plus micro-benchmarks of the
// hot substrate paths (event queue, spatial index, routing, solvers,
// aggregators).
//
// Run everything:
//
//	go test -bench=. -benchmem
package iobt

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/experiments"
	"iobt/internal/geo"
	"iobt/internal/learn"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/socialsense"
)

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		t := e.Run(42, true)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1DecisionLoop(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Composition(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Discovery(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4Adaptation(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5Game(b *testing.B)            { benchExperiment(b, "E5") }
func BenchmarkE6Learning(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7Truth(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkE8Tomography(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Saturation(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10CostOfLearning(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11Continual(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12Diversity(b *testing.B)      { benchExperiment(b, "E12") }

// --- substrate micro-benchmarks ---

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		for j := 0; j < 1000; j++ {
			eng.Schedule(time.Duration(j)*time.Millisecond, "x", func() {})
		}
		_ = eng.Run(0)
	}
	b.ReportMetric(1000, "events/op")
}

func BenchmarkGridNear(b *testing.B) {
	g := geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: 5000, Y: 5000}), 0)
	rng := sim.NewRNG(1)
	for i := int32(0); i < 10000; i++ {
		g.Insert(i, geo.Point{X: rng.Uniform(0, 5000), Y: rng.Uniform(0, 5000)})
	}
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Near(buf[:0], geo.Point{X: 2500, Y: 2500}, 300)
	}
}

func BenchmarkMeshRefresh1k(b *testing.B) {
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(3000, 3000)
	pop := asset.Generate(terr, asset.DefaultMix(1000), eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Refresh()
	}
}

func BenchmarkMeshRoute(b *testing.B) {
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(3000, 3000)
	pop := asset.Generate(terr, asset.DefaultMix(1000), eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	ids := net.Nodes()
	if len(ids) < 2 {
		b.Skip("not enough connected nodes")
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ids[rng.Intn(len(ids))]
		c := ids[rng.Intn(len(ids))]
		net.Refresh() // defeat the route cache: worst-case routing
		_ = net.Route(a, c)
	}
}

func BenchmarkGreedyCompose5k(b *testing.B) {
	terr := geo.NewUrbanTerrain(3000, 3000, 100)
	rng := sim.NewRNG(1)
	pop := asset.Generate(terr, asset.DefaultMix(5000), rng)
	goal := compose.Goal{
		Area:         geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 2800, Y: 2800}),
		CoverageFrac: 0.6,
	}
	req := compose.Derive(goal)
	pool := compose.PoolFromPopulation(pop, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = compose.GreedySolver{}.Solve(req, pool)
	}
}

func BenchmarkEMTruthDiscovery(b *testing.B) {
	d := socialsense.Generate(sim.NewRNG(1), socialsense.DefaultGenConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = socialsense.EM(d, 50)
	}
}

func BenchmarkKrumAggregate(b *testing.B) {
	rng := sim.NewRNG(1)
	updates := make([][]float64, 50)
	for i := range updates {
		updates[i] = make([]float64, 100)
		for j := range updates[i] {
			updates[i][j] = rng.Norm(0, 1)
		}
	}
	agg := learn.KrumAgg{F: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = agg.Aggregate(updates)
	}
}

func BenchmarkFederatedRound(b *testing.B) {
	rng := sim.NewRNG(1)
	train := learn.GenDataset(rng, learn.GenConfig{N: 2000, Dim: 5})
	test := learn.GenDatasetFromW(rng, train.TrueW, 200, 0.05)
	shards := train.Split(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = learn.RunFederated(shards, test, learn.FedConfig{
			Rounds: 1, Agg: learn.MedianAgg{},
		})
	}
}

func BenchmarkE13Tracking(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14Recovery(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15Failover(b *testing.B) { benchExperiment(b, "E15") }
