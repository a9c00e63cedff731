// Package trust maintains per-asset trust scores using Beta-reputation
// bookkeeping: each node accumulates positive and negative evidence from
// discovery, truth-finding, anomaly detection, and mission outcomes, and
// its score is the posterior expectation of behaving correctly.
//
// Trust is the cross-cutting security signal of the paper (§II, §VI): it
// gates which discovered assets composition will recruit and which peers
// learning will aggregate from.
package trust

import (
	"math"
	"sort"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
)

// Evidence identifies where an observation came from, for audit and for
// source-specific weighting.
type Evidence int

// Evidence sources.
const (
	EvDiscovery Evidence = iota + 1 // fingerprint/probe consistency
	EvTruth                         // truth-discovery reliability estimate
	EvAnomaly                       // anomaly detector verdicts
	EvMission                       // post-mission outcome audit
)

// weights scale how strongly each evidence source moves the posterior.
var weights = map[Evidence]float64{
	EvDiscovery: 1,
	EvTruth:     2,
	EvAnomaly:   1.5,
	EvMission:   3,
}

type record struct {
	alpha, beta float64 // Beta(alpha, beta) posterior
}

// Ledger tracks trust for a world's assets. The zero ledger is not
// usable; construct with NewLedger.
type Ledger struct {
	records map[asset.ID]*record
	// PriorAlpha/PriorBeta set the uninformed prior; defaults 1,1
	// (uniform) giving new nodes score 0.5.
	priorAlpha, priorBeta float64
}

// NewLedger returns an empty ledger with a uniform prior.
func NewLedger() *Ledger {
	return &Ledger{
		records:    make(map[asset.ID]*record),
		priorAlpha: 1,
		priorBeta:  1,
	}
}

func (l *Ledger) rec(id asset.ID) *record {
	r, ok := l.records[id]
	if !ok {
		r = &record{alpha: l.priorAlpha, beta: l.priorBeta}
		l.records[id] = r
	}
	return r
}

// Observe records one observation about id: good=true is supporting
// evidence, good=false is incriminating. The evidence source sets the
// update weight.
func (l *Ledger) Observe(id asset.ID, src Evidence, good bool) {
	w, ok := weights[src]
	if !ok {
		w = 1
	}
	r := l.rec(id)
	if good {
		r.alpha += w
	} else {
		r.beta += w
	}
}

// Score returns the trust score of id in (0,1): the mean of its Beta
// posterior. Unseen nodes return the prior mean.
func (l *Ledger) Score(id asset.ID) float64 {
	r, ok := l.records[id]
	if !ok {
		return l.priorAlpha / (l.priorAlpha + l.priorBeta)
	}
	return r.alpha / (r.alpha + r.beta)
}

// Confidence returns how much evidence backs the score, as 1 - the
// posterior standard deviation normalized to the prior's. Ranges (0,1];
// higher is more settled.
func (l *Ledger) Confidence(id asset.ID) float64 {
	r, ok := l.records[id]
	if !ok {
		return 0
	}
	s := r.alpha + r.beta
	sd := math.Sqrt(r.alpha * r.beta / (s * s * (s + 1)))
	prior := l.priorAlpha + l.priorBeta
	sdPrior := math.Sqrt(l.priorAlpha * l.priorBeta / (prior * prior * (prior + 1)))
	if sdPrior == 0 {
		return 1
	}
	c := 1 - sd/sdPrior
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c
}

// Trusted reports whether id's score meets the threshold.
func (l *Ledger) Trusted(id asset.ID, threshold float64) bool {
	return l.Score(id) >= threshold
}

// Suspects returns all ids with score below threshold, worst first.
func (l *Ledger) Suspects(threshold float64) []asset.ID {
	type pair struct {
		id asset.ID
		s  float64
	}
	var out []pair
	for id := range l.records {
		if s := l.Score(id); s < threshold {
			out = append(out, pair{id, s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s < out[j].s
		}
		return out[i].id < out[j].id
	})
	ids := make([]asset.ID, len(out))
	for i, p := range out {
		ids[i] = p.id
	}
	return ids
}

// Reset discards all accumulated evidence, returning every node to the
// prior. This is the cold-failover path: a rebuilt command post starts
// with no reputation memory and must re-learn who to trust.
func (l *Ledger) Reset() {
	for id := range l.records {
		delete(l.records, id)
	}
}

// EvidenceTotal returns the total weighted evidence accumulated beyond
// the prior, summed over all nodes. The fault harness samples it to
// measure the stale-trust window after a failover: how long the
// successor post operates on less evidence than the lost post held.
// Float addition is not associative, so the sum runs over ids in
// sorted order (the Snapshot idiom): a map-order sum differs in the
// last bits between same-seed runs, and the harness feeds this value
// into scheduling decisions where those bits matter.
func (l *Ledger) EvidenceTotal() float64 {
	ids := make([]asset.ID, 0, len(l.records))
	for id := range l.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	total := 0.0
	for _, id := range ids {
		r := l.records[id]
		total += (r.alpha - l.priorAlpha) + (r.beta - l.priorBeta)
	}
	return total
}

// Evidence returns id's accumulated Beta evidence (alpha, beta), or the
// prior if the node is unseen. The replicated common operational picture
// (internal/cop) exports these pairs as grow-only counters.
func (l *Ledger) Evidence(id asset.ID) (alpha, beta float64) {
	r, ok := l.records[id]
	if !ok {
		return l.priorAlpha, l.priorBeta
	}
	return r.alpha, r.beta
}

// IDs returns every node with recorded evidence, ascending.
func (l *Ledger) IDs() []asset.ID {
	ids := make([]asset.ID, 0, len(l.records))
	for id := range l.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SnapshotName implements checkpoint.Snapshotter.
func (l *Ledger) SnapshotName() string { return "trust" }

// Snapshot encodes the ledger deterministically (ids sorted).
func (l *Ledger) Snapshot() []byte {
	ids := make([]asset.ID, 0, len(l.records))
	for id := range l.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e := checkpoint.NewEncoder()
	e.Grow(8 * (3 + 3*len(ids)))
	e.Float64(l.priorAlpha)
	e.Float64(l.priorBeta)
	e.Int(len(ids))
	for _, id := range ids {
		r := l.records[id]
		e.Int64(int64(id))
		e.Float64(r.alpha)
		e.Float64(r.beta)
	}
	return e.Bytes()
}

// Restore replaces the ledger's state from a snapshot.
func (l *Ledger) Restore(data []byte) error {
	d := checkpoint.NewDecoder(data)
	priorAlpha := d.Float64()
	priorBeta := d.Float64()
	n := d.Count(d.Int(), 24) // id, alpha, beta
	if d.Err() != nil {
		return d.Err()
	}
	records := make(map[asset.ID]*record, n)
	for i := 0; i < n; i++ {
		id := asset.ID(d.Int64())
		alpha := d.Float64()
		beta := d.Float64()
		records[id] = &record{alpha: alpha, beta: beta}
	}
	if err := d.Finish(); err != nil {
		return err
	}
	l.priorAlpha, l.priorBeta = priorAlpha, priorBeta
	l.records = records
	return nil
}
