// Package learn implements the paper's Challenge 3 (§V.B): distributed
// machine learning for intelligent battlefield services. It provides
// logistic models trained by federated averaging with Byzantine-robust
// aggregation (coordinate median, trimmed mean, Krum), fully
// decentralized gossip gradient descent over ring, star, full and
// hierarchical topologies, explicit communication-cost accounting for
// the cost-of-learning trade-off (refs [28]-[33]), and contextual
// continual learning that avoids catastrophic forgetting (ref [26]).
//
// Models are deliberately convex (logistic regression): the paper's
// distributed-learning claims concern topology dynamics, adversarial
// compromise, and communication cost — all orthogonal to model class —
// and convex models make convergence measurable and deterministic.
package learn

import "math"

// Model is a logistic-regression classifier. W[0] is the bias; W[1:]
// multiply the features.
type Model struct {
	W []float64
}

// NewModel returns a zero model for dim features.
func NewModel(dim int) *Model {
	return &Model{W: make([]float64, dim+1)}
}

// Clone returns a deep copy.
func (m *Model) Clone() *Model {
	w := make([]float64, len(m.W))
	copy(w, m.W)
	return &Model{W: w}
}

// score returns w·x plus bias.
func (m *Model) score(x []float64) float64 {
	s := m.W[0]
	n := len(m.W) - 1
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		s += m.W[i+1] * x[i]
	}
	return s
}

// Predict returns P(y=1 | x).
func (m *Model) Predict(x []float64) float64 { return sigmoid(m.score(x)) }

// Classify returns the hard label.
func (m *Model) Classify(x []float64) int {
	if m.Predict(x) >= 0.5 {
		return 1
	}
	return 0
}

// Gradient accumulates the logistic-loss gradient of one example into
// grad (len = len(W)).
func (m *Model) Gradient(grad []float64, x []float64, y int) {
	p := m.Predict(x)
	err := p - float64(y)
	grad[0] += err
	n := len(m.W) - 1
	if len(x) < n {
		n = len(x)
	}
	for i := 0; i < n; i++ {
		grad[i+1] += err * x[i]
	}
}

// SGDStep performs one mini-batch gradient step at learning rate lr.
func (m *Model) SGDStep(X [][]float64, Y []int, lr float64) {
	if len(X) == 0 {
		return
	}
	grad := make([]float64, len(m.W))
	for i := range X {
		m.Gradient(grad, X[i], Y[i])
	}
	scale := lr / float64(len(X))
	for i := range m.W {
		m.W[i] -= scale * grad[i]
	}
}

// Accuracy returns the classification accuracy on a dataset.
func (m *Model) Accuracy(X [][]float64, Y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	ok := 0
	for i := range X {
		if m.Classify(X[i]) == Y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}
