package trust

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
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

// allocBytes returns the bytes f allocates on the heap, the least of
// three runs: a fuzz worker's own goroutines allocate too.
func allocBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLedgerRestoreRefusesClaimedCount: a 24-byte snapshot claiming a
// million records is refused before the record table is sized from the
// claim, and the ledger keeps its evidence.
func TestLedgerRestoreRefusesClaimedCount(t *testing.T) {
	l := NewLedger()
	l.Observe(3, EvMission, true)
	e := checkpoint.NewEncoder()
	e.Float64(1)
	e.Float64(1)
	e.Int(1 << 20)
	var err error
	if grew := allocBytes(func() { err = l.Restore(e.Bytes()) }); grew > 4096 {
		t.Errorf("a %d-byte snapshot allocated %d bytes", e.Len(), grew)
	}
	if err == nil {
		t.Fatal("Restore accepted a count the snapshot cannot hold")
	}
	if len(l.records) != 1 {
		t.Fatalf("refused restore left %d records, want 1", len(l.records))
	}
}

// FuzzLedgerRestore holds the trust snapshot decoder to the checkpoint
// contract: any input is refused or applied without a panic, decoding
// allocates in proportion to the input, and once an input is accepted
// the ledger's snapshot is a fixed point of a second Restore/Snapshot.
func FuzzLedgerRestore(f *testing.F) {
	l := NewLedger()
	l.Observe(3, EvMission, true)
	l.Observe(7, EvAnomaly, false)
	snap := l.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(snap[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger()
		var err error
		// A record is 24 bytes in and a map slot plus a *record out.
		if grew, limit := allocBytes(func() { err = l.Restore(data) }), uint64(16*len(data)+4096); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte snapshot, limit %d", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		once := l.Snapshot()
		if err := l.Restore(once); err != nil {
			t.Fatalf("ledger refused its own snapshot: %v", err)
		}
		if twice := l.Snapshot(); !bytes.Equal(once, twice) {
			t.Fatalf("snapshot is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
