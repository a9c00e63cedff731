package trust

import (
	"testing"
	"testing/quick"

	"iobt/internal/asset"
)

func TestPriorScore(t *testing.T) {
	l := NewLedger()
	if got := l.Score(1); got != 0.5 {
		t.Errorf("prior score = %v, want 0.5", got)
	}
	if l.Confidence(1) != 0 {
		t.Error("unseen node should have zero confidence")
	}
}

func TestObserveMovesScore(t *testing.T) {
	l := NewLedger()
	l.Observe(1, EvMission, true)
	if l.Score(1) <= 0.5 {
		t.Error("good evidence should raise score")
	}
	l2 := NewLedger()
	l2.Observe(1, EvMission, false)
	if l2.Score(1) >= 0.5 {
		t.Error("bad evidence should lower score")
	}
}

func TestEvidenceWeighting(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	a.Observe(1, EvDiscovery, true) // weight 1
	b.Observe(1, EvMission, true)   // weight 3
	if b.Score(1) <= a.Score(1) {
		t.Errorf("mission evidence should move score more: %v vs %v", b.Score(1), a.Score(1))
	}
	// Unknown evidence source defaults to weight 1.
	c := NewLedger()
	c.Observe(1, Evidence(99), true)
	if c.Score(1) != a.Score(1) {
		t.Error("unknown evidence should weigh 1")
	}
}

func TestConfidenceGrows(t *testing.T) {
	l := NewLedger()
	l.Observe(1, EvDiscovery, true)
	c1 := l.Confidence(1)
	for i := 0; i < 20; i++ {
		l.Observe(1, EvDiscovery, true)
	}
	c2 := l.Confidence(1)
	if c2 <= c1 {
		t.Errorf("confidence did not grow: %v -> %v", c1, c2)
	}
	if c2 > 1 {
		t.Errorf("confidence out of range: %v", c2)
	}
}

// TestTrustedAndSuspects: the suspects, nodes with negative evidence,
// are not trusted, and mission evidence weighs more than anomaly
// evidence.
func TestTrustedAndSuspects(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 5; i++ {
		l.Observe(1, EvMission, false)
		l.Observe(2, EvMission, true)
		l.Observe(3, EvAnomaly, false)
	}
	if l.Trusted(1) || l.Trusted(3) {
		t.Error("bad nodes should not be trusted")
	}
	if !l.Trusted(2) {
		t.Error("good node should be trusted")
	}
	// Node 1 has stronger negative evidence (weight 3 vs 1.5).
	if l.Score(1) >= l.Score(3) {
		t.Errorf("scores %v, %v: mission evidence should weigh more than anomaly evidence", l.Score(1), l.Score(3))
	}
	if n := len(l.records); n != 3 {
		t.Errorf("records = %d", n)
	}
}

// Property: scores always stay strictly inside (0,1) and more good
// evidence never lowers the score.
func TestScoreInvariants(t *testing.T) {
	prop := func(obs []bool) bool {
		l := NewLedger()
		prev := l.Score(7)
		for _, good := range obs {
			l.Observe(7, EvTruth, good)
			s := l.Score(7)
			if s <= 0 || s >= 1 {
				return false
			}
			if good && s < prev {
				return false
			}
			if !good && s > prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestEvidenceTotalDeterministic locks in the iobtlint dettaint fix:
// the evidence sum must be a pure function of ledger content. Float
// addition is not associative, so the old map-order loop returned a
// value whose last bits depended on that run's map iteration order —
// once the records are non-dyadic, repeated calls could disagree. The
// sum now runs over sorted ids and must equal the explicit ascending-ID
// reference bit-for-bit, every call.
func TestEvidenceTotalDeterministic(t *testing.T) {
	l := NewLedger()
	const n = 64
	for i := 0; i < n; i++ {
		id := asset.ID(i)
		for k := 0; k <= i; k++ {
			l.Observe(id, EvMission, k%3 == 0)
			l.Observe(id, EvAnomaly, k%2 == 0)
		}
	}
	// Non-dyadic records: addition order now matters.
	for _, r := range l.records {
		r.alpha *= 0.977
		r.beta *= 0.977
	}

	want := 0.0
	for i := 0; i < n; i++ {
		r := l.records[asset.ID(i)]
		want += (r.alpha - l.priorAlpha) + (r.beta - l.priorBeta)
	}
	for trial := 0; trial < 50; trial++ {
		if got := l.EvidenceTotal(); got != want {
			t.Fatalf("trial %d: EvidenceTotal = %v, want sorted-order sum %v", trial, got, want)
		}
	}
}

func TestEvidenceExportAndIDs(t *testing.T) {
	l := NewLedger()
	if a, b := l.Evidence(7); a != 1 || b != 1 {
		t.Errorf("unseen evidence = (%v,%v), want the (1,1) prior", a, b)
	}
	l.Observe(7, EvMission, true)
	l.Observe(3, EvAnomaly, false)
	a, b := l.Evidence(7)
	if a != 4 || b != 1 {
		t.Errorf("evidence(7) = (%v,%v), want (4,1)", a, b)
	}
	ids := l.IDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Errorf("IDs = %v, want [3 7] ascending", ids)
	}
}
