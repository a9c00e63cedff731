package anomaly

import "sort"

// Attention ranks situations (streams) by persistent anomaly evidence.
// A situation earns attention by exceeding its detector threshold in
// m-of-n recent observations; a one-shot decoy spike therefore cannot
// outrank a sustained anomaly — the paper's requirement that attention
// services resist "intentionally-designed distractions".
type Attention struct {
	window   int
	minHits  int
	streams  map[string]*attnStream
	detAlpha float64
	detThr   float64
}

type attnStream struct {
	det  *Detector
	hits []bool // ring of recent exceedances
	pos  int
}

// NewAttention returns an attention service requiring minHits anomalous
// observations within the last window to flag a situation.
func NewAttention(window, minHits int) *Attention {
	if window <= 0 {
		window = 10
	}
	if minHits <= 0 || minHits > window {
		minHits = (window + 1) / 2
	}
	return &Attention{
		window:   window,
		minHits:  minHits,
		streams:  make(map[string]*attnStream),
		detAlpha: 0.05,
		detThr:   3,
	}
}

// Observe feeds one reading for the named situation.
func (a *Attention) Observe(name string, v float64) {
	s, ok := a.streams[name]
	if !ok {
		s = &attnStream{det: NewDetector(a.detAlpha, a.detThr), hits: make([]bool, a.window)}
		a.streams[name] = s
	}
	score := s.det.Observe(v)
	s.hits[s.pos] = score > a.detThr
	s.pos = (s.pos + 1) % a.window
}

// hitCount returns the exceedances in the window.
func (s *attnStream) hitCount() int {
	n := 0
	for _, h := range s.hits {
		if h {
			n++
		}
	}
	return n
}

// Ranked returns situation names ordered by attention priority
// (persistent anomalies first); situations below minHits are excluded.
func (a *Attention) Ranked() []string {
	type entry struct {
		name string
		hits int
	}
	var out []entry
	for name, s := range a.streams {
		if h := s.hitCount(); h >= a.minHits {
			out = append(out, entry{name, h})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].hits != out[j].hits {
			return out[i].hits > out[j].hits
		}
		return out[i].name < out[j].name
	})
	names := make([]string, len(out))
	for i, e := range out {
		names[i] = e.name
	}
	return names
}

// SourceAudit identifies bad sources by systematic deviation from the
// peer consensus (median) on a shared quantity, feeding the result back
// into trust.
type SourceAudit struct {
	// deviations accumulates |report - consensus| per source.
	deviations map[int]float64
	counts     map[int]int
}

// NewSourceAudit returns an empty audit.
func NewSourceAudit() *SourceAudit {
	return &SourceAudit{deviations: make(map[int]float64), counts: make(map[int]int)}
}

// Round ingests one round of reports about the same ground quantity:
// reports[source] = value. Consensus is the median report.
func (s *SourceAudit) Round(reports map[int]float64) {
	if len(reports) == 0 {
		return
	}
	vals := make([]float64, 0, len(reports))
	for _, v := range reports {
		vals = append(vals, v)
	}
	consensus := median(vals)
	for src, v := range reports {
		d := v - consensus
		if d < 0 {
			d = -d
		}
		s.deviations[src] += d
		s.counts[src]++
	}
}

// MeanDeviation returns a source's average deviation from consensus.
func (s *SourceAudit) MeanDeviation(src int) float64 {
	n := s.counts[src]
	if n == 0 {
		return 0
	}
	return s.deviations[src] / float64(n)
}

// BadSources returns sources whose mean deviation exceeds factor times
// the median source deviation, worst first.
func (s *SourceAudit) BadSources(factor float64) []int {
	if factor <= 0 {
		factor = 3
	}
	var devs []float64
	for src := range s.counts {
		devs = append(devs, s.MeanDeviation(src))
	}
	if len(devs) == 0 {
		return nil
	}
	base := median(devs)
	threshold := base * factor
	if threshold < 1e-9 {
		threshold = 1e-9
	}
	type entry struct {
		src int
		dev float64
	}
	var out []entry
	for src := range s.counts {
		if d := s.MeanDeviation(src); d > threshold {
			out = append(out, entry{src, d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dev != out[j].dev {
			return out[i].dev > out[j].dev
		}
		return out[i].src < out[j].src
	})
	ids := make([]int, len(out))
	for i, e := range out {
		ids[i] = e.src
	}
	return ids
}
