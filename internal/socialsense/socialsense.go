// Package socialsense implements human-as-sensor truth discovery
// (paper §III.A): given boolean claims reported by sources of unknown
// reliability — "possibly noisy, biased, linguistically ambiguous, and
// conflicting" — jointly estimate which claims are true and how reliable
// each source is.
//
// The estimation-theoretic algorithm follows the expectation-maximization
// formulation of Wang, Abdelzaher & Kaplan ("Using humans as sensors",
// IPSN'14; the paper's refs [1][2]); MajorityVote is the baseline
// experiment E7 compares against.
package socialsense

import (
	"math"

	"iobt/internal/sim"
)

// Report is one source's statement about one claim.
type Report struct {
	Source int
	Claim  int
	// Value is the asserted polarity of the claim.
	Value bool
}

// Dataset is a truth-discovery problem instance with ground truth
// retained for evaluation.
type Dataset struct {
	NumSources int
	NumClaims  int
	Reports    []Report

	// Truth is the ground-truth claim polarity (hidden from solvers).
	Truth []bool
	// Reliability is each source's ground-truth probability of
	// reporting correctly (hidden from solvers).
	Reliability []float64
	// Colluder marks sources that coordinate to report falsehoods.
	Colluder []bool
}

// GenConfig parameterizes dataset generation.
type GenConfig struct {
	Sources int
	Claims  int
	// ReliabilityAlpha/Beta shape the Beta distribution honest source
	// reliabilities are drawn from. Alpha>Beta skews reliable.
	ReliabilityAlpha, ReliabilityBeta float64
	// ColluderFrac is the fraction of sources that always report the
	// inverse of the truth (coordinated deception, paper §II).
	ColluderFrac float64
}

const (
	// trueFrac is the fraction of claims whose polarity is true.
	trueFrac = 0.5
	// observeProb is the chance a source witnesses (reports on) a claim.
	observeProb = 0.15
)

// DefaultGenConfig returns the E7 workload shape.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Sources:          200,
		Claims:           500,
		ReliabilityAlpha: 6,
		ReliabilityBeta:  2.5,
		ColluderFrac:     0,
	}
}

// Generate draws a dataset from the generative model the estimation
// framework assumes.
func Generate(rng *sim.RNG, cfg GenConfig) *Dataset {
	d := &Dataset{
		NumSources:  cfg.Sources,
		NumClaims:   cfg.Claims,
		Truth:       make([]bool, cfg.Claims),
		Reliability: make([]float64, cfg.Sources),
		Colluder:    make([]bool, cfg.Sources),
	}
	for j := range d.Truth {
		d.Truth[j] = rng.Bool(trueFrac)
	}
	nColl := int(cfg.ColluderFrac * float64(cfg.Sources))
	for s := 0; s < cfg.Sources; s++ {
		if s < nColl {
			d.Colluder[s] = true
			d.Reliability[s] = 0.05 // almost always lies
		} else {
			d.Reliability[s] = clamp01(rng.Beta(cfg.ReliabilityAlpha, cfg.ReliabilityBeta))
		}
	}
	for s := 0; s < cfg.Sources; s++ {
		for j := 0; j < cfg.Claims; j++ {
			if !rng.Bool(observeProb) {
				continue
			}
			correct := rng.Bool(d.Reliability[s])
			v := d.Truth[j]
			if !correct {
				v = !v
			}
			d.Reports = append(d.Reports, Report{Source: s, Claim: j, Value: v})
		}
	}
	return d
}

func clamp01(v float64) float64 {
	if v < 0.01 {
		return 0.01
	}
	if v > 0.99 {
		return 0.99
	}
	return v
}

// MajorityVote returns the per-claim majority polarity (ties resolve to
// false). Claims with no reports default to false.
func MajorityVote(d *Dataset) []bool {
	pos := make([]int, d.NumClaims)
	tot := make([]int, d.NumClaims)
	for _, r := range d.Reports {
		tot[r.Claim]++
		if r.Value {
			pos[r.Claim]++
		}
	}
	out := make([]bool, d.NumClaims)
	for j := range out {
		out[j] = tot[j] > 0 && 2*pos[j] > tot[j]
	}
	return out
}

// Result is the output of EM truth discovery.
type Result struct {
	// TruthProb is the posterior probability each claim is true.
	TruthProb []float64
	// Reliability is the estimated per-source correctness probability.
	Reliability []float64
	// Iterations actually run before convergence.
	Iterations int
}

// Estimates returns the hard truth assignment (prob >= 0.5).
func (r *Result) Estimates() []bool {
	out := make([]bool, len(r.TruthProb))
	for j, p := range r.TruthProb {
		out[j] = p >= 0.5
	}
	return out
}

// maxIters bounds EM's iterations.
const maxIters = 50

// EM runs expectation-maximization truth discovery for at most maxIters
// iterations (converging earlier when estimates stabilize).
//
// Model: claim j has latent truth z_j ~ Bernoulli(0.5); source s reports
// correctly with probability a_s. E-step computes P(z_j | reports, a);
// M-step re-estimates a_s as its expected fraction of correct reports.
// Reliabilities are initialized slightly above 0.5, which anchors the
// label symmetry to "sources are on average honest" — the assumption the
// social-sensing literature makes explicit.
func EM(d *Dataset) *Result {
	// Index reports by claim for the E-step.
	byClaim := make([][]Report, d.NumClaims)
	for _, r := range d.Reports {
		byClaim[r.Claim] = append(byClaim[r.Claim], r)
	}
	bySource := make([][]Report, d.NumSources)
	for _, r := range d.Reports {
		bySource[r.Source] = append(bySource[r.Source], r)
	}

	rel := make([]float64, d.NumSources)
	for s := range rel {
		rel[s] = 0.7 // honest-majority anchor
	}
	prob := make([]float64, d.NumClaims)

	iters := 0
	for it := 0; it < maxIters; it++ {
		iters = it + 1
		// E-step: posterior truth probability per claim.
		maxDelta := 0.0
		for j := 0; j < d.NumClaims; j++ {
			logTrue, logFalse := 0.0, 0.0
			for _, r := range byClaim[j] {
				a := clamp01(rel[r.Source])
				if r.Value {
					logTrue += math.Log(a)
					logFalse += math.Log(1 - a)
				} else {
					logTrue += math.Log(1 - a)
					logFalse += math.Log(a)
				}
			}
			// Uniform prior on z_j.
			m := math.Max(logTrue, logFalse)
			pt := math.Exp(logTrue - m)
			pf := math.Exp(logFalse - m)
			p := pt / (pt + pf)
			if delta := math.Abs(p - prob[j]); delta > maxDelta {
				maxDelta = delta
			}
			prob[j] = p
		}
		// M-step: expected correctness per source, with Laplace
		// smoothing so sparse sources do not saturate.
		for s := 0; s < d.NumSources; s++ {
			num, den := 1.0, 2.0 // Beta(1,1) smoothing
			for _, r := range bySource[s] {
				p := prob[r.Claim]
				if r.Value {
					num += p
				} else {
					num += 1 - p
				}
				den++
			}
			rel[s] = num / den
		}
		if maxDelta < 1e-4 && it > 0 {
			break
		}
	}
	return &Result{TruthProb: prob, Reliability: rel, Iterations: iters}
}

// Accuracy returns the fraction of claims whose estimate matches truth.
func Accuracy(est, truth []bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	n := len(truth)
	if len(est) < n {
		n = len(est)
	}
	ok := 0
	for j := 0; j < n; j++ {
		if est[j] == truth[j] {
			ok++
		}
	}
	return float64(ok) / float64(len(truth))
}

// ReliabilityRMSE measures how well estimated source reliabilities match
// ground truth.
func ReliabilityRMSE(est, truth []float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	n := len(truth)
	if len(est) < n {
		n = len(est)
	}
	acc := 0.0
	for s := 0; s < n; s++ {
		d := est[s] - truth[s]
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}
