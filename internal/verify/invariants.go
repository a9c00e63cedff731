package verify

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"iobt/internal/asset"
	"iobt/internal/cop"
	"iobt/internal/core"
	"iobt/internal/mesh"
	"iobt/internal/track"
	"iobt/internal/trust"
)

// This file is the invariant catalogue: one constructor per subsystem
// property. MissionInvariants assembles the full set for a running
// mission; individual constructors exist so tests and experiments can
// arm subsets.

// MeshConservation wraps the network's message-conservation law:
// Delivered + Dropped + NoRoute + InFlight == Sent.
func MeshConservation(n *mesh.Network) Invariant {
	return Invariant{Name: "mesh-conservation", Check: n.CheckConservation}
}

// MissionMetrics checks the internal consistency of mission metrics:
// the counter lattice detected <= incidents, ontime <= acted <=
// detected, the undeliverable accounting (a lost incident is never also
// acted upon — which also catches an order executed twice across a
// failover, since a duplicate completion pushes acted past detected),
// one latency sample per action, and rates bounded in [0,1].
func MissionMetrics(m *core.Metrics) Invariant {
	return Invariant{Name: "mission-metrics", Check: func() error {
		if m.Detected.Value() > m.Incidents.Value() {
			return fmt.Errorf("detected %d > incidents %d", m.Detected.Value(), m.Incidents.Value())
		}
		if m.OnTime.Value() > m.Acted.Value() {
			return fmt.Errorf("ontime %d > acted %d", m.OnTime.Value(), m.Acted.Value())
		}
		if m.Acted.Value() > m.Detected.Value() {
			return fmt.Errorf("acted %d > detected %d (order executed twice?)", m.Acted.Value(), m.Detected.Value())
		}
		if m.Undeliverable.Value() > m.Detected.Value() {
			return fmt.Errorf("undeliverable %d > detected %d", m.Undeliverable.Value(), m.Detected.Value())
		}
		if m.Acted.Value()+m.Undeliverable.Value() > m.Detected.Value() {
			return fmt.Errorf("acted %d + undeliverable %d > detected %d",
				m.Acted.Value(), m.Undeliverable.Value(), m.Detected.Value())
		}
		if m.DecisionLatency.N() != int(m.Acted.Value()) {
			return fmt.Errorf("latency samples %d != acted %d (double completion?)",
				m.DecisionLatency.N(), m.Acted.Value())
		}
		if s := m.SuccessRate(); s < 0 || s > 1 {
			return fmt.Errorf("success rate %v out of [0,1]", s)
		}
		if d := m.DetectionRate(); d < 0 || d > 1 {
			return fmt.Errorf("detection rate %v out of [0,1]", d)
		}
		return nil
	}}
}

// CountersMonotone checks that no mission counter ever decreases — a
// regression (e.g. a Reset leaking into metrics on failover) shows up
// as a backwards step between two sweeps.
func CountersMonotone(m *core.Metrics) Invariant {
	counters := m.Counters()
	prev := make([]uint64, len(counters))
	return Invariant{Name: "counters-monotone", Check: func() error {
		for i, c := range counters {
			v := c.Value()
			if v < prev[i] {
				return fmt.Errorf("counter %s went backwards: %d -> %d", c.Name, prev[i], v)
			}
			prev[i] = v
		}
		return nil
	}}
}

// TrustBounds checks every recorded trust score and confidence stays in
// [0,1], evidence mass stays non-negative, and — because evidence only
// accumulates between resets — total evidence never shrinks except
// across an authorized wipe (a post crash, decay, or a checkpoint
// restore), which resetOK signals. resetOK is consulted every sweep,
// so constructors may use it to track wipe events between sweeps.
func TrustBounds(l *trust.Ledger, resetOK func() bool) Invariant {
	prevEvidence := 0.0
	return Invariant{Name: "trust-bounds", Check: func() error {
		allowed := resetOK == nil || resetOK()
		// Threshold above the score range enumerates every recorded id.
		for _, id := range l.Suspects(2) {
			if s := l.Score(id); s < 0 || s > 1 || math.IsNaN(s) {
				return fmt.Errorf("trust score of %d out of [0,1]: %v", id, s)
			}
			if c := l.Confidence(id); c < 0 || c > 1 || math.IsNaN(c) {
				return fmt.Errorf("trust confidence of %d out of [0,1]: %v", id, c)
			}
		}
		ev := l.EvidenceTotal()
		if ev < -1e-9 || math.IsNaN(ev) {
			return fmt.Errorf("trust evidence total negative: %v", ev)
		}
		if ev < prevEvidence-1e-9 && !allowed {
			return fmt.Errorf("trust evidence shrank without reset: %v -> %v", prevEvidence, ev)
		}
		prevEvidence = ev
		return nil
	}}
}

// TrackConsistency checks the track picture: confirmed counts agree
// across accessors, confirmation implies enough hits, and every state
// estimate is finite.
func TrackConsistency(tr *track.Tracker) Invariant {
	return Invariant{Name: "track-consistency", Check: func() error {
		if got, want := tr.ConfirmedCount(), len(tr.Tracks()); got != want {
			return fmt.Errorf("ConfirmedCount %d != len(Tracks) %d", got, want)
		}
		if len(tr.Tracks()) > len(tr.All()) {
			return fmt.Errorf("confirmed %d > all %d", len(tr.Tracks()), len(tr.All()))
		}
		for _, t := range tr.All() {
			if t.Confirmed() && t.Hits < 3 {
				return fmt.Errorf("track %d confirmed with %d hits", t.ID, t.Hits)
			}
			p := t.Pos()
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				return fmt.Errorf("track %d position not finite: %v", t.ID, p)
			}
		}
		return nil
	}}
}

// HealthValid checks the mission health state machine stays within its
// defined states.
func HealthValid(r *core.Runtime) Invariant {
	return Invariant{Name: "health-valid", Check: func() error {
		if h := r.Health(); h != core.Healthy && h != core.Degraded && h != core.Critical {
			return fmt.Errorf("invalid health state %v", h)
		}
		return nil
	}}
}

// TimeMonotone checks the engine clock never runs backwards across
// sweeps.
func TimeMonotone(now func() time.Duration) Invariant {
	prev := time.Duration(-1)
	return Invariant{Name: "time-monotone", Check: func() error {
		n := now()
		if n < prev {
			return fmt.Errorf("clock went backwards: %s -> %s", prev, n)
		}
		prev = n
		return nil
	}}
}

// GossipConservation wraps the epidemic overlay's conservation law:
// every held payload traces to an origin publish, first-time deliveries
// equal total held copies, no replica's holdings ever shrink, and
// deliveries never exceed publishes × members.
func GossipConservation(g *mesh.Gossip) Invariant {
	return Invariant{Name: "gossip-conservation", Check: g.CheckConservation}
}

// PictureMonotone checks that a replicated common operational picture
// only moves up the CRDT partial order between sweeps: merges and local
// observations may add state, but anti-entropy must never regress it.
// The pictures func returns the replicas to audit; prior states are
// tracked per replica owner.
func PictureMonotone(name string, pictures func() []*cop.Picture) Invariant {
	prev := make(map[asset.ID]*cop.Picture)
	return Invariant{Name: "picture-monotone-" + name, Check: func() error {
		for _, p := range pictures() {
			if p == nil {
				continue
			}
			if old, ok := prev[p.Self()]; ok && !p.Dominates(old) {
				return fmt.Errorf("picture %s/%d regressed below its prior state: tracks, trust pairs and covered cells %v, were %v",
					name, p.Self(), pictureCounts(p), pictureCounts(old))
			}
			prev[p.Self()] = p.Clone()
		}
		return nil
	}}
}

func pictureCounts(p *cop.Picture) [3]int {
	tracks, trust, cells := p.Counts()
	return [3]int{tracks, trust, cells}
}

// SnapshotDeterminism checks that a snapshotter encodes the same
// logical state to the same bytes when asked twice at one instant —
// the property the whole checkpoint/replay stack rests on.
func SnapshotDeterminism(name string, snap func() []byte) Invariant {
	return Invariant{Name: "snapshot-determinism-" + name, Check: func() error {
		a := snap()
		b := snap()
		if !bytes.Equal(a, b) {
			return fmt.Errorf("%s snapshot not deterministic: %d vs %d bytes", name, len(a), len(b))
		}
		return nil
	}}
}

// MissionInvariants assembles the full catalogue for a running mission:
// mesh conservation, metric consistency and monotonicity, trust bounds,
// health validity, clock monotonicity, snapshot determinism for every
// checkpointed component, and — when a tracker is attached — track
// picture consistency.
func MissionInvariants(w *core.World, r *core.Runtime) []Invariant {
	// A post crash wipes the ledger and a warm promotion restores an
	// older (smaller) checkpointed copy — both authorized evidence
	// losses. postDown covers the crash-to-promotion window; a Failovers
	// increment covers the promotion sweep itself. Any other shrink is a
	// bug (the mission runtime never calls Decay).
	lastFailovers := r.Metrics.Failovers.Value()
	trustResetOK := func() bool {
		ok := r.PostDown()
		if f := r.Metrics.Failovers.Value(); f != lastFailovers {
			lastFailovers = f
			ok = true
		}
		return ok
	}
	invs := []Invariant{
		MeshConservation(w.Net),
		MissionMetrics(&r.Metrics),
		CountersMonotone(&r.Metrics),
		TrustBounds(w.Trust, trustResetOK),
		HealthValid(r),
		TimeMonotone(w.Eng.Now),
	}
	if tr := r.Tracker(); tr != nil {
		invs = append(invs, TrackConsistency(tr))
		invs = append(invs, SnapshotDeterminism("track", tr.Snapshot))
	}
	invs = append(invs, SnapshotDeterminism("trust", w.Trust.Snapshot))
	invs = append(invs, SnapshotDeterminism("runtime", r.Snapshot))
	return invs
}
