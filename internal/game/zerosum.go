package game

import "iobt/internal/sim"

// Matrix is a two-player zero-sum game: Payoff[i][j] is what the row
// player (maximizer, e.g. the blue communicator) receives when playing
// row i against column j (the adversary, e.g. the jammer). The paper's
// contested-environment games (§IV.A: "multi-level dynamic games that
// offer provable convergence guarantees") reduce to repeatedly solving
// such stage games.
type Matrix struct {
	Payoff [][]float64
}

// Rows returns the row player's action count.
func (m *Matrix) Rows() int { return len(m.Payoff) }

// Cols returns the column player's action count.
func (m *Matrix) Cols() int {
	if len(m.Payoff) == 0 {
		return 0
	}
	return len(m.Payoff[0])
}

// JammingGame builds the frequency-hopping stage game: the communicator
// picks one of n channels, the jammer jams one. Communication succeeds
// fully on an unjammed channel and delivers nothing on a jammed one.
// The unique equilibrium is uniform mixing by both sides with value
// 1 - 1/n: more channels dilute the jammer.
func JammingGame(channels int) *Matrix {
	if channels < 1 {
		channels = 1
	}
	p := make([][]float64, channels)
	for i := range p {
		p[i] = make([]float64, channels)
		for j := range p[i] {
			if i == j {
				p[i][j] = 0
			} else {
				p[i][j] = 1
			}
		}
	}
	return &Matrix{Payoff: p}
}

// FPResult is the outcome of fictitious play.
type FPResult struct {
	// RowMix and ColMix are the empirical mixed strategies.
	RowMix, ColMix []float64
	// Value is the empirical average payoff (converges to the game
	// value for zero-sum games).
	Value float64
	// Exploitability is the gap between the best responses to the two
	// empirical mixes: maxRow(vs ColMix) - minCol(vs RowMix). Zero at
	// the exact equilibrium; it upper-bounds how much either side could
	// gain by deviating.
	Exploitability float64
}

// fpIters is how many rounds FictitiousPlay plays.
const fpIters = 20000

// FictitiousPlay runs simultaneous fictitious play for fpIters rounds:
// each player best-responds to the opponent's empirical mixture.
// Robinson's theorem guarantees convergence to equilibrium in zero-sum
// games — the provable-convergence guarantee the paper asks of its
// agent-interaction designs.
func FictitiousPlay(m *Matrix, rng *sim.RNG) *FPResult {
	rows, cols := m.Rows(), m.Cols()
	if rows == 0 || cols == 0 {
		return &FPResult{}
	}
	rowCount := make([]float64, rows)
	colCount := make([]float64, cols)
	// Start from random pure actions so ties don't bias to index 0.
	r := 0
	c := 0
	if rng != nil {
		r = rng.Intn(rows)
		c = rng.Intn(cols)
	}
	total := 0.0
	for it := 0; it < fpIters; it++ {
		rowCount[r]++
		colCount[c]++
		total += m.Payoff[r][c]
		// Row best-responds to the column empirical mix.
		r = argmaxRow(m, colCount)
		// Column best-responds (minimizes) to the row empirical mix.
		c = argminCol(m, rowCount)
	}
	res := &FPResult{
		RowMix: normalize(rowCount),
		ColMix: normalize(colCount),
		Value:  total / fpIters,
	}
	// Exploitability against the empirical mixes.
	bestRow := rowPayoff(m, argmaxRowMix(m, res.ColMix), res.ColMix)
	bestCol := colPayoff(m, res.RowMix, argminColMix(m, res.RowMix))
	res.Exploitability = bestRow - bestCol
	return res
}

func argmaxRow(m *Matrix, colCount []float64) int {
	best, bestV := 0, -1e300
	for i := 0; i < m.Rows(); i++ {
		v := 0.0
		for j := range colCount {
			v += m.Payoff[i][j] * colCount[j]
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func argminCol(m *Matrix, rowCount []float64) int {
	best, bestV := 0, 1e300
	for j := 0; j < m.Cols(); j++ {
		v := 0.0
		for i := range rowCount {
			v += m.Payoff[i][j] * rowCount[i]
		}
		if v < bestV {
			best, bestV = j, v
		}
	}
	return best
}

func argmaxRowMix(m *Matrix, colMix []float64) int {
	best, bestV := 0, -1e300
	for i := 0; i < m.Rows(); i++ {
		if v := rowPayoff(m, i, colMix); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func argminColMix(m *Matrix, rowMix []float64) int {
	best, bestV := 0, 1e300
	for j := 0; j < m.Cols(); j++ {
		if v := colPayoff(m, rowMix, j); v < bestV {
			best, bestV = j, v
		}
	}
	return best
}

func rowPayoff(m *Matrix, i int, colMix []float64) float64 {
	v := 0.0
	for j, p := range colMix {
		v += m.Payoff[i][j] * p
	}
	return v
}

func colPayoff(m *Matrix, rowMix []float64, j int) float64 {
	v := 0.0
	for i, p := range rowMix {
		v += m.Payoff[i][j] * p
	}
	return v
}

func normalize(v []float64) []float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	out := make([]float64, len(v))
	if sum == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / sum
	}
	return out
}
