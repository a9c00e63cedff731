package track

import (
	"sort"

	"iobt/internal/geo"
)

// Secure state estimation (paper §III: "exploitation of physical
// dynamics of sensor observations to enable secure and resilient
// state-estimation and control in the face of data contamination").
// When several sensors observe the same target, a compromised subset
// can inject biased positions; coordinate-wise median fusion tolerates
// any minority of arbitrarily corrupted sensors, where the naive
// average is dragged proportionally to the attacker's bias.

// FuseMean averages redundant detections of one target (the fragile
// baseline).
func FuseMean(dets []Detection) (Detection, bool) {
	if len(dets) == 0 {
		return Detection{}, false
	}
	var x, y, v float64
	for _, d := range dets {
		x += d.Pos.X
		y += d.Pos.Y
		v += d.Var
	}
	n := float64(len(dets))
	return Detection{
		Pos: geo.Point{X: x / n, Y: y / n},
		// Averaging n independent measurements divides variance by n.
		Var:    v / n / n,
		Sensor: dets[0].Sensor,
	}, true
}

// FuseMedian fuses redundant detections with the coordinate-wise
// median: resilient to strictly fewer than half the sensors being
// compromised, regardless of how large their injected bias is.
func FuseMedian(dets []Detection) (Detection, bool) {
	if len(dets) == 0 {
		return Detection{}, false
	}
	xs := make([]float64, len(dets))
	ys := make([]float64, len(dets))
	v := 0.0
	for i, d := range dets {
		xs[i] = d.Pos.X
		ys[i] = d.Pos.Y
		v += d.Var
	}
	return Detection{
		Pos: geo.Point{X: medianOf(xs), Y: medianOf(ys)},
		// The median of n measurements is ~pi/2 less efficient than the
		// mean; approximate its variance accordingly.
		Var:    (v / float64(len(dets))) * 1.57 / float64(len(dets)),
		Sensor: dets[0].Sensor,
	}, true
}

// FlagOutliers returns the indices of detections whose distance from
// the coordinate-wise median exceeds 4 times the median absolute
// deviation of those distances — the contaminated-sensor report that
// feeds the trust ledger.
func FlagOutliers(dets []Detection) []int {
	if len(dets) < 3 {
		return nil
	}
	med, _ := FuseMedian(dets)
	dists := make([]float64, len(dets))
	for i, d := range dets {
		dists[i] = d.Pos.Dist(med.Pos)
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	mad := sorted[len(sorted)/2]
	if mad < 1e-9 {
		mad = 1e-9
	}
	var out []int
	for i, d := range dists {
		if d > 4*mad {
			out = append(out, i)
		}
	}
	return out
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
