package learn

// Continual learning (paper §V.B "Continuous and robust learning"): "in
// systems that learn blindly without proper contextualization, new
// information can often erase previously learned knowledge" [26]. The
// ContextualLearner maintains one model per automatically detected
// context; SingleLearner is the forgetting baseline.

// ContinualDim is the feature dimension of the continual learners'
// models.
const ContinualDim = 4

// continualRate is the continual learners' SGD learning rate.
const continualRate = 0.3

// SingleLearner trains one model over the whole stream.
type SingleLearner struct {
	Model *Model
}

// NewSingleLearner returns the baseline learner.
func NewSingleLearner() *SingleLearner {
	return &SingleLearner{Model: NewModel(ContinualDim)}
}

// Observe trains on one mini-batch.
func (s *SingleLearner) Observe(X [][]float64, Y []int) {
	s.Model.SGDStep(X, Y, continualRate)
}

// Predictor returns the model used for inference.
func (s *SingleLearner) Predictor() *Model { return s.Model }

// ContextualLearner detects context switches from prediction-error
// spikes and maintains a separate model per context, reusing a stored
// model when it explains fresh data well ("the system must learn the
// different relevant underlying contexts automatically").
type ContextualLearner struct {
	models  []*Model
	active  int
	baseAcc float64 // accuracy threshold for keeping the active model

	// Switches counts detected context changes.
	Switches int
}

// NewContextualLearner returns a learner with one initial context.
func NewContextualLearner() *ContextualLearner {
	return &ContextualLearner{
		models:  []*Model{NewModel(ContinualDim)},
		baseAcc: 0.65,
	}
}

// NumContexts returns how many context models exist.
func (c *ContextualLearner) NumContexts() int { return len(c.models) }

// Observe trains on a mini-batch, first checking whether the active
// model still explains it; if not it switches to the best stored model
// or spawns a fresh one.
func (c *ContextualLearner) Observe(X [][]float64, Y []int) {
	if len(X) == 0 {
		return
	}
	if c.models[c.active].Accuracy(X, Y) < c.baseAcc {
		// Context change suspected: find the best stored model.
		best, bestAcc := -1, 0.0
		for i, m := range c.models {
			if acc := m.Accuracy(X, Y); acc > bestAcc {
				best, bestAcc = i, acc
			}
		}
		if best >= 0 && bestAcc >= c.baseAcc {
			if best != c.active {
				c.active = best
				c.Switches++
			}
		} else {
			// Unknown context: spawn a new model so the old knowledge
			// is preserved rather than overwritten.
			c.models = append(c.models, NewModel(ContinualDim))
			c.active = len(c.models) - 1
			c.Switches++
		}
	}
	c.models[c.active].SGDStep(X, Y, continualRate)
}

// BestAccuracy evaluates every stored model on a dataset and returns the
// best score (the retention metric: can the learner still serve an old
// context?).
func (c *ContextualLearner) BestAccuracy(X [][]float64, Y []int) float64 {
	best := 0.0
	for _, m := range c.models {
		if acc := m.Accuracy(X, Y); acc > best {
			best = acc
		}
	}
	return best
}
