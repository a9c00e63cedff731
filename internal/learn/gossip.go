package learn

// Topology yields the undirected neighbor lists in force at a given
// round.
type Topology func(round int) [][]int

// Ring returns a static ring over n nodes.
func Ring(n int) Topology {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	if n == 1 {
		adj[0] = nil
	}
	return func(int) [][]int { return adj }
}

// Star returns a static star with node 0 at the hub.
func Star(n int) Topology {
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int{0}
	}
	return func(int) [][]int { return adj }
}

// Full returns the complete graph.
func Full(n int) Topology {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return func(int) [][]int { return adj }
}

// Hierarchical returns a two-level tree: sqrt(n) cluster heads fully
// connected to each other, members connected to their head.
func Hierarchical(n int) Topology {
	heads := 1
	for heads*heads < n {
		heads++
	}
	adj := make([][]int, n)
	for h := 0; h < heads && h < n; h++ {
		for g := 0; g < heads && g < n; g++ {
			if h != g {
				adj[h] = append(adj[h], g)
			}
		}
	}
	for i := heads; i < n; i++ {
		h := i % heads
		adj[i] = append(adj[i], h)
		adj[h] = append(adj[h], i)
	}
	return func(int) [][]int { return adj }
}

// Edges counts undirected edges in a topology round (for cost
// accounting).
func Edges(adj [][]int) int {
	total := 0
	for _, nb := range adj {
		total += len(nb)
	}
	return total / 2
}

// GossipConfig parameterizes decentralized training.
type GossipConfig struct {
	Rounds int
}

const (
	// gossipLR is each node's local SGD rate.
	gossipLR = 0.4
	// gossipMix is the neighbor-averaging weight:
	// w_i <- (1-gossipMix)*w_i + gossipMix*avg(neighbors).
	gossipMix = 0.5
)

// GossipResult captures a decentralized run.
type GossipResult struct {
	// Models holds each node's final model.
	Models []*Model
	// MeanAcc is the mean node accuracy per round on the test set.
	MeanAcc []float64
	// Disagreement is the mean pairwise weight distance per round
	// (consensus metric).
	Disagreement []float64
	// BytesSent counts total gossip traffic.
	BytesSent float64
}

// RunGossip trains one model per node with decentralized gradient
// descent: each round, every node takes a local SGD step then averages
// with its current neighbors.
func RunGossip(shards []*Dataset, test *Dataset, topo Topology, cfg GossipConfig) *GossipResult {
	n := len(shards)
	if n == 0 {
		return &GossipResult{}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 30
	}
	dim := 0
	for _, s := range shards {
		if s.Len() > 0 {
			dim = len(s.X[0])
			break
		}
	}
	models := make([]*Model, n)
	for i := range models {
		models[i] = NewModel(dim)
	}
	res := &GossipResult{}
	msgBytes := float64((dim + 1) * 8)

	shared := make([][]float64, n)
	for r := 0; r < cfg.Rounds; r++ {
		adj := topo(r)
		// Local step, then publish weights.
		for i := 0; i < n; i++ {
			models[i].SGDStep(shards[i].X, shards[i].Y, gossipLR)
			w := make([]float64, len(models[i].W))
			copy(w, models[i].W)
			shared[i] = w
		}
		// Mix with neighbors.
		next := make([][]float64, n)
		for i := 0; i < n; i++ {
			nbrs := adj[i]
			if len(nbrs) == 0 {
				next[i] = models[i].W
				continue
			}
			res.BytesSent += msgBytes * float64(len(nbrs))
			gathered := make([][]float64, 0, len(nbrs))
			for _, j := range nbrs {
				gathered = append(gathered, shared[j])
			}
			avg := (MeanAgg{}).Aggregate(gathered)
			w := make([]float64, len(models[i].W))
			for c := range w {
				w[c] = (1-gossipMix)*models[i].W[c] + gossipMix*avg[c]
			}
			next[i] = w
		}
		for i := 0; i < n; i++ {
			models[i].W = next[i]
		}
		acc := 0.0
		for _, m := range models {
			acc += m.Accuracy(test.X, test.Y)
		}
		res.MeanAcc = append(res.MeanAcc, acc/float64(n))
		res.Disagreement = append(res.Disagreement, disagreement(models))
	}
	res.Models = models
	return res
}

// disagreement returns the mean pairwise L2 distance between models.
func disagreement(models []*Model) float64 {
	n := len(models)
	if n < 2 {
		return 0
	}
	total, pairs := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff := make([]float64, len(models[i].W))
			for c := range diff {
				diff[c] = models[i].W[c] - models[j].W[c]
			}
			total += normL2(diff)
			pairs++
		}
	}
	return total / float64(pairs)
}
