package compose

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// e2Pool is experiment E2's composition instance: n mixed assets on a
// 3 km urban terrain, 60 % of the inner 2.6 km square to be sensed with
// 2000 MIPS between the members. Trust is drawn per candidate from the
// seed so a trust floor has something to cut.
func e2Pool(seed int64, n int) (Goal, []Candidate) {
	terr := geo.NewUrbanTerrain(3000, 3000)
	pop := asset.Generate(terr, asset.DefaultMix(n), sim.NewRNG(seed))
	pool := PoolFromPopulation(pop, nil)
	rng := sim.NewRNG(seed).Derive("trust")
	for i := range pool {
		pool[i].Trust = rng.Uniform(0, 1)
	}
	return Goal{
		Name:         "surveil",
		Area:         geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 2800, Y: 2800}),
		CoverageFrac: 0.6,
		Compute:      2000,
	}, pool
}

// lose marks every every-th member of comp failed and returns the loss
// set with the pool of survivors.
func lose(comp *Composite, pool []Candidate, every int) (map[asset.ID]bool, []Candidate) {
	failed := map[asset.ID]bool{}
	for i, id := range comp.Members {
		if i%every == 0 {
			failed[id] = true
		}
	}
	var survivors []Candidate
	for _, c := range pool {
		if !failed[c.ID] {
			survivors = append(survivors, c)
		}
	}
	return failed, survivors
}

// compositeDigest hashes the composite's checkpoint encoding and whether
// the solver reported an error.
func compositeDigest(c *Composite, err error) string {
	e := checkpoint.NewEncoder()
	EncodeComposite(e, c)
	e.Bool(err != nil)
	sum := sha256.Sum256(e.Bytes())
	return hex.EncodeToString(sum[:8])
}

// TestComposeGolden pins, absolutely, what every solver and Recompose
// pick on seeded E2-style instances, so a refactor of how candidates
// are scored against cells cannot drift silently.
func TestComposeGolden(t *testing.T) {
	cases := []struct {
		name  string
		solve func() (*Composite, error)
		want  string
	}{
		{"greedy_e2_1k", func() (*Composite, error) {
			g, pool := e2Pool(42, 1000)
			return GreedySolver{}.Solve(Derive(g), pool)
		}, "75b07ad4fff08385"},
		{"greedy_e2_1k_k2_modality", func() (*Composite, error) {
			g, pool := e2Pool(7, 1000)
			g.Redundancy = 2
			g.CoverageFrac = 0.5
			g.Modalities = asset.ModVisual | asset.ModAcoustic
			return GreedySolver{}.Solve(Derive(g), pool)
		}, "8468a726718b3ec6"},
		{"greedy_e2_1k_trust_floor", func() (*Composite, error) {
			g, pool := e2Pool(11, 1000)
			g.MinTrust = 0.3
			return GreedySolver{}.Solve(Derive(g), pool)
		}, "9a9a8a1e15e9bbc1"},
		{"csp_random_instance", func() (*Composite, error) {
			req, pool := randomInstance(9)
			return solveCSP(req, pool, 20000, 8)
		}, "46d88ff6ecbab8a9"},
		{"recompose_e2_1k_loss20", func() (*Composite, error) {
			g, pool := e2Pool(42, 1000)
			req := Derive(g)
			comp, err := GreedySolver{}.Solve(req, pool)
			if err != nil {
				return comp, err
			}
			failed, survivors := lose(comp, pool, 5)
			return Recompose(req, comp, failed, survivors)
		}, "d97ce9305d325edb"},
		{"recompose_e2_1k_k2_loss33", func() (*Composite, error) {
			g, pool := e2Pool(7, 1000)
			g.Redundancy = 2
			g.CoverageFrac = 0.5
			g.MinTrust = 0.2
			req := Derive(g)
			comp, _ := GreedySolver{}.Solve(req, pool)
			failed, survivors := lose(comp, pool, 3)
			return Recompose(req, comp, failed, survivors)
		}, "49be28c66c3c2d13"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := tc.solve()
			if got := compositeDigest(comp, err); got != tc.want {
				n := -1
				if comp != nil {
					n = len(comp.Members)
				}
				t.Errorf("digest = %s (members %d, err %v), want %s", got, n, err, tc.want)
			}
		})
	}
}
