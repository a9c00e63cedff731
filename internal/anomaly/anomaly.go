// Package anomaly implements information diagnostics (paper §V.A):
// streaming anomaly scoring, an attention service that directs scarce
// operator attention to the situations that deserve it most — "even in
// the presence of noise, failures, bad data, malicious adversarial
// inputs, and other possibly intentionally-designed distractions" — and
// a source audit that identifies bad (human or physical) sources by
// their systematic deviation from peer consensus.
package anomaly

import (
	"math"
	"sort"
)

// Detector is a streaming z-score detector over an exponentially
// weighted mean and variance. The zero value is not ready; use
// NewDetector.
type Detector struct {
	alpha    float64
	mean     float64
	variance float64
	n        int
	// Threshold is the |z| above which a value is anomalous.
	Threshold float64
}

// NewDetector returns a detector with smoothing alpha in (0,1) (small =
// slow baseline) and the given z threshold.
func NewDetector(alpha, threshold float64) *Detector {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	if threshold <= 0 {
		threshold = 3
	}
	return &Detector{alpha: alpha, Threshold: threshold}
}

// Score returns the anomaly score (|z|) of v against the current
// baseline WITHOUT updating the baseline.
func (d *Detector) Score(v float64) float64 {
	if d.n < 2 {
		return 0
	}
	sd := math.Sqrt(d.variance)
	if sd < 1e-9 {
		if v == d.mean {
			return 0
		}
		return d.Threshold * 10
	}
	return math.Abs(v-d.mean) / sd
}

// Observe scores v and then folds it into the baseline. Anomalous
// observations do NOT update the baseline: a burst of attack values
// cannot drag the mean (or inflate the variance) to legitimize itself.
// Sustained regime changes are the attention service's job to surface,
// not the detector's to silently absorb.
func (d *Detector) Observe(v float64) float64 {
	score := d.Score(v)
	// During ramp-up the variance estimate is unreliable (it starts at
	// zero), so the baseline always absorbs; freezing only begins once
	// the detector has a settled view of normal.
	const rampUp = 30
	if score > d.Threshold && d.n >= rampUp {
		d.n++
		return score
	}
	if d.n == 0 {
		d.mean = v
	} else {
		delta := v - d.mean
		d.mean += d.alpha * delta
		d.variance = (1-d.alpha)*d.variance + d.alpha*delta*delta
	}
	d.n++
	return score
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
