package trust

import (
	"bytes"
	"testing"

	"iobt/internal/asset"
)

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	l := NewLedger()
	l.priorAlpha, l.priorBeta = 2, 1
	l.Observe(3, EvMission, true)
	l.Observe(3, EvMission, true)
	l.Observe(7, EvAnomaly, false)
	l.Observe(1, EvDiscovery, true)

	snap := l.Snapshot()
	restored := NewLedger()
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, id := range []asset.ID{1, 3, 7} {
		if got, want := restored.Score(id), l.Score(id); got != want {
			t.Errorf("Score(%d) = %v after restore, want %v", id, got, want)
		}
		if got, want := restored.Confidence(id), l.Confidence(id); got != want {
			t.Errorf("Confidence(%d) = %v after restore, want %v", id, got, want)
		}
	}
	if got, want := restored.EvidenceTotal(), l.EvidenceTotal(); got != want {
		t.Errorf("EvidenceTotal = %v after restore, want %v", got, want)
	}
	// Deterministic encoding: re-snapshotting the restored ledger must
	// be byte-identical.
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Error("restored ledger snapshot differs from original")
	}
}

func TestLedgerResetClearsEvidence(t *testing.T) {
	l := NewLedger()
	l.Observe(5, EvMission, true)
	if l.EvidenceTotal() == 0 {
		t.Fatal("evidence should be nonzero after Observe")
	}
	l.Reset()
	if l.EvidenceTotal() != 0 {
		t.Errorf("EvidenceTotal = %v after Reset, want 0", l.EvidenceTotal())
	}
	if n := len(l.records); n != 0 {
		t.Errorf("%d records after Reset, want 0", n)
	}
}
