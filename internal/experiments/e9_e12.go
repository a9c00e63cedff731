package experiments

import (
	"iobt/internal/adapt"
	"iobt/internal/alloc"
	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/geo"
	"iobt/internal/learn"
	"iobt/internal/sim"
)

// E9Saturation reproduces §IV.B: allocation must "prevent any subset of
// IoBT devices (including attackers) from saturating cloud processing
// and communication resources".
func E9Saturation(seed int64, quick bool) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "mission goodput under adversarial load by allocator",
		Header: []string{"attack share", "fifo", "max-min fair", "isolated", "isolated+admission"},
		Notes:  "FIFO collapses as attack share grows; isolation keeps mission goodput flat",
	}
	_ = quick
	rng := sim.NewRNG(seed)
	const capacity = 1000.0
	const missionDemand = 400.0
	for _, share := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		attackDemand := 0.0
		if share > 0 && share < 1 {
			attackDemand = capacity * share / (1 - share) * 10 // oversubscribed
		}
		// Attack flows arrive first (worst case for FIFO).
		nAttack := 8
		var flows []alloc.Flow
		id := 0
		for i := 0; i < nAttack; i++ {
			flows = append(flows, alloc.Flow{
				ID: id, Class: alloc.ClassUntrusted, Weight: 1,
				Demand: attackDemand / float64(nAttack) * rng.Uniform(0.8, 1.2),
			})
			id++
		}
		for i := 0; i < 4; i++ {
			flows = append(flows, alloc.Flow{
				ID: id, Class: alloc.ClassMission, Weight: 2,
				Demand: missionDemand / 4,
			})
			id++
		}
		fifo := alloc.FIFO(capacity, flows)
		fair := alloc.MaxMinFair(capacity, flows)
		iso := alloc.Isolated(capacity, flows, alloc.DefaultShares())
		admitted := alloc.Admission(flows, capacity/8)
		isoAdm := alloc.Isolated(capacity, admitted, alloc.DefaultShares())

		t.AddRow(f2(share),
			f0(alloc.MissionGoodput(flows, fifo)),
			f0(alloc.MissionGoodput(flows, fair)),
			f0(alloc.MissionGoodput(flows, iso)),
			f0(alloc.MissionGoodput(admitted, isoAdm)))
	}
	return t
}

// E10CostOfLearning reproduces §V.B refs [28]-[33]: "one might activate
// different network topologies based on the trade-off between network
// learning and communication".
func E10CostOfLearning(seed int64, quick bool) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "accuracy under a communication budget by gossip topology",
		Header: []string{"topology", "edges/round", "budget rounds", "final acc", "MB used"},
		Notes:  "dense graphs win per round but sparse graphs win per byte — a crossover exists",
	}
	n := 16
	budget := 400_000.0
	if quick {
		budget = 200_000
	}
	rng := sim.NewRNG(seed)
	train := learn.GenDataset(rng, learn.GenConfig{N: 1500, Dim: 4})
	test := learn.GenDatasetFromW(rng, train.TrueW, 400, 0.05)
	shards := train.Split(rng, n)

	msg := float64((4 + 1) * 8)
	cases := []struct {
		name string
		topo learn.Topology
	}{
		{"ring", learn.Ring(n)},
		{"hierarchical", learn.Hierarchical(n)},
		{"full", learn.Full(n)},
		{"star", learn.Star(n)},
	}
	for _, c := range cases {
		perRound := float64(learn.Edges(c.topo(0))) * 2 * msg
		rounds := int(budget / perRound)
		if rounds < 1 {
			rounds = 1
		}
		res := learn.RunGossip(shards, test, c.topo, learn.GossipConfig{Rounds: rounds})
		acc := 0.0
		if len(res.MeanAcc) > 0 {
			acc = res.MeanAcc[len(res.MeanAcc)-1]
		}
		t.AddRow(c.name, d(learn.Edges(c.topo(0))), d(rounds), f3(acc), f2(res.BytesSent/1e6))
	}
	return t
}

// E11Continual reproduces §V.B ref [26]: context-aware learning retains
// old knowledge where a single blindly-updated model forgets.
func E11Continual(seed int64, quick bool) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "retention accuracy per context: single model vs contextual",
		Header: []string{"context", "single", "contextual", "contexts found"},
		Notes:  "single model forgets early contexts; contextual retains all",
	}
	batches := 40
	if quick {
		batches = 25
	}
	rng := sim.NewRNG(seed)
	var ws [][]float64
	for c := 0; c < 3; c++ {
		w := make([]float64, learn.ContinualDim+1)
		for i := range w {
			w[i] = rng.Norm(0, 3)
		}
		ws = append(ws, w)
	}
	for i := range ws[1] {
		ws[1][i] = -ws[0][i] // maximal interference with context 0
	}
	single := learn.NewSingleLearner()
	ctx := learn.NewContextualLearner()
	var evals []*learn.Dataset
	for phase := 0; phase < 3; phase++ {
		evals = append(evals, learn.GenDatasetFromW(rng, ws[phase], 400, 0.02))
		for b := 0; b < batches; b++ {
			batch := learn.GenDatasetFromW(rng, ws[phase], 20, 0.02)
			single.Observe(batch.X, batch.Y)
			ctx.Observe(batch.X, batch.Y)
		}
	}
	for phase := 0; phase < 3; phase++ {
		t.AddRow(d(phase),
			f3(single.Predictor().Accuracy(evals[phase].X, evals[phase].Y)),
			f3(ctx.BestAccuracy(evals[phase].X, evals[phase].Y)),
			d(ctx.NumContexts()))
	}
	return t
}

// E12Diversity reproduces §IV.B refs [15]-[18]: diverse teams outperform
// homogeneous teams — here, modality-diverse sensor teams retain
// coverage when an environmental event (smoke) blinds one modality,
// matching the paper's seismic-for-visual substitution example.
func E12Diversity(seed int64, quick bool) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "coverage before/after visual blackout: homogeneous vs diverse team",
		Header: []string{"team", "coverage before", "coverage after smoke", "retained"},
		Notes:  "homogeneous all-visual team collapses; diverse team degrades gracefully",
	}
	n := 12
	if quick {
		n = 8
	}
	rng := sim.NewRNG(seed)
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})

	mkTeam := func(diverse bool) []compose.Candidate {
		var team []compose.Candidate
		for i := 0; i < n*n/12; i++ {
			for j := 0; j < 12; j++ {
				mod := asset.ModVisual
				if diverse {
					switch j % 3 {
					case 1:
						mod = asset.ModSeismic
					case 2:
						mod = asset.ModThermal
					}
				}
				team = append(team, compose.Candidate{
					ID:  asset.ID(len(team)),
					Pos: geo.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)},
					Caps: asset.Capabilities{
						Modalities: mod, SenseRange: 180, RadioRange: 400,
					},
					Trust: 0.9, Affiliation: asset.Blue,
				})
			}
		}
		return team
	}
	eval := func(team []compose.Candidate, smokeBlocksVisual bool) float64 {
		goal := compose.Goal{Area: area, CoverageFrac: 0.9}
		if smokeBlocksVisual {
			// Smoke: visual sensors are blind; only non-visual modalities
			// still count. Requiring a non-visual modality models this.
			goal.Modalities = asset.ModSeismic | asset.ModThermal | asset.ModAcoustic
		}
		req := compose.Derive(goal)
		return compose.Evaluate(req, team).CoverageFrac
	}
	for _, diverse := range []bool{false, true} {
		name := "homogeneous-visual"
		if diverse {
			name = "diverse-3-modality"
		}
		team := mkTeam(diverse)
		before := eval(team, false)
		after := eval(team, true)
		retained := 0.0
		if before > 0 {
			retained = after / before
		}
		t.AddRow(name, f2(before), f2(after), f2(retained))
	}
	// Bonus row: adaptive reflex chain selecting the fallback modality,
	// tying the diversity result to the adapt machinery.
	chain := adapt.NewReflexChain(
		adapt.Rule{Name: "use-visual", Condition: func() bool { return false }},
		adapt.Rule{Name: "fallback-seismic", Condition: func() bool { return true }},
	)
	fired := chain.Tick()
	t.AddRow("reflex-chain", "-", "-", fired)
	return t
}
