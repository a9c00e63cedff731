package adapt

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

// meshWorld builds a k x k grid of sensors with radio range linking the
// four-neighborhood.
func meshWorld(t *testing.T, k int) (*sim.Engine, *asset.Population, *mesh.Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(float64(k+1)*100, float64(k+1)*100)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 120 // links 100m grid neighbors, not diagonals
	for iy := 0; iy < k; iy++ {
		for ix := 0; ix < k; ix++ {
			a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
				Mobility: &geo.Static{P: geo.Point{X: float64(ix+1) * 100, Y: float64(iy+1) * 100}}}
			a.Energy = caps.EnergyCap
			pop.Add(a)
		}
	}
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0
	return eng, pop, mesh.New(eng, pop, terr, cfg)
}

func TestSpanningTreeConverges(t *testing.T) {
	_, _, net := meshWorld(t, 5)
	tree := NewSpanningTree(net)
	rounds, ok := tree.Stabilize()
	if !ok {
		t.Fatal("tree did not stabilize")
	}
	if !tree.Legal() {
		t.Fatal("stabilized tree is not legal")
	}
	// BFS depth on a 5x5 grid from corner node 0 is at most 8.
	if rounds > 20 {
		t.Errorf("stabilization took %d rounds", rounds)
	}
	if tree.Root(24) != 0 {
		t.Errorf("root of node 24 = %d, want 0", tree.Root(24))
	}
	if tree.dist[24] != 8 {
		t.Errorf("depth of far corner = %d, want 8", tree.dist[24])
	}
}

func TestSpanningTreeSelfStabilizesFromCorruption(t *testing.T) {
	_, _, net := meshWorld(t, 4)
	tree := NewSpanningTree(net)
	if _, ok := tree.Stabilize(); !ok {
		t.Fatal("initial stabilization failed")
	}
	// Adversarial state injection: node 7 claims a phantom root at
	// distance 0, which is smaller than every real ID.
	tree.Corrupt(7)
	if tree.Legal() {
		t.Fatal("corruption not visible")
	}
	rounds, ok := tree.Stabilize()
	if !ok {
		t.Fatalf("did not re-stabilize after corruption")
	}
	if !tree.Legal() {
		t.Error("tree illegal after re-stabilization")
	}
	t.Logf("re-stabilized in %d rounds", rounds)
}

func TestSpanningTreeRecoversFromRootLoss(t *testing.T) {
	_, pop, net := meshWorld(t, 4)
	tree := NewSpanningTree(net)
	if _, ok := tree.Stabilize(); !ok {
		t.Fatal("initial stabilization failed")
	}
	// Kill the root (node 0); the tree must re-root at node 1.
	pop.Kill(0)
	net.Refresh()
	if _, ok := tree.Stabilize(); !ok {
		t.Fatal("did not re-stabilize after root loss")
	}
	if !tree.Legal() {
		t.Fatal("illegal after root loss")
	}
	if tree.Root(15) != 1 {
		t.Errorf("new root = %d, want 1", tree.Root(15))
	}
}

func TestSpanningTreePartition(t *testing.T) {
	_, pop, net := meshWorld(t, 3) // 3x3 grid, nodes 0..8
	// Cut the middle column (ids 1,4,7) to split left/right columns.
	pop.Kill(1)
	pop.Kill(4)
	pop.Kill(7)
	net.Refresh()
	tree := NewSpanningTree(net)
	if _, ok := tree.Stabilize(); !ok {
		t.Fatal("did not stabilize under partition")
	}
	if !tree.Legal() {
		t.Fatal("illegal under partition")
	}
	// Components {0,3,6} and {2,5,8} must have distinct roots.
	if tree.Root(6) != 0 {
		t.Errorf("left root = %d", tree.Root(6))
	}
	if tree.Root(8) != 2 {
		t.Errorf("right root = %d", tree.Root(8))
	}
}

func TestSpanningTreeEmptyNetwork(t *testing.T) {
	eng := sim.NewEngine(9)
	terr := geo.NewOpenTerrain(100, 100)
	pop := asset.NewPopulation(terr)
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	tree := NewSpanningTree(net)
	if rounds, ok := tree.Stabilize(); !ok || rounds != 1 {
		t.Errorf("empty network should quiesce immediately: %d, %v", rounds, ok)
	}
	if !tree.Legal() {
		t.Error("empty tree should be legal")
	}
	_ = eng.Run(time.Millisecond)
}
