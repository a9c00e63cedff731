package mesh

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"iobt/internal/checkpoint"
)

// TestWindowSnapshotRequeueAndFail exercises the warm-failover window
// disposition: exchanges captured by the snapshot are requeued (with
// Readdress applied), exchanges begun after the cut fail loudly, and
// nothing vanishes from the terminal accounting.
func TestWindowSnapshotRequeueAndFail(t *testing.T) {
	eng, net := lossyPair(t, 0, 7)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})

	// Two exchanges in flight at the cut. Pause delivery so they stay
	// unacknowledged while we snapshot.
	blocked := true
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: blocked} })
	acked, failed := 0, 0
	for i := 0; i < 2; i++ {
		r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"},
			func() { acked++ }, func() { failed++ })
	}
	snap := r.Snapshot()
	if got := len(r.inflight); got != 2 {
		t.Fatalf("inflight at snapshot = %d, want 2", got)
	}

	// A third exchange begins after the cut: the snapshot must not know
	// it, so Restore has to fail it.
	r.Send(Message{From: 0, To: 1, Size: 64, Kind: "late"},
		func() { acked++ }, func() { failed++ })

	readdressed := 0
	r.Readdress = func(m Message) Message { readdressed++; return m }
	if err := r.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if failed != 1 {
		t.Fatalf("post-cut exchange failed = %d, want 1", failed)
	}
	if readdressed != 2 {
		t.Fatalf("readdressed %d exchanges, want 2", readdressed)
	}
	if got := r.Requeued.Value(); got != 2 {
		t.Fatalf("Requeued = %d, want 2", got)
	}

	// Unblock the link; the requeued exchanges must complete.
	blocked = false
	_ = eng.Run(time.Minute)
	if acked != 2 {
		t.Fatalf("acked = %d, want 2 after requeue", acked)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFailInflightColdDisposition checks the cold path: every live
// exchange fails, firing onFail exactly once each.
func TestFailInflightColdDisposition(t *testing.T) {
	eng, net := lossyPair(t, 0, 8)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	failed := 0
	for i := 0; i < 3; i++ {
		r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"}, nil, func() { failed++ })
	}
	if n := r.FailInflight(); n != 3 {
		t.Fatalf("FailInflight = %d, want 3", n)
	}
	if failed != 3 {
		t.Fatalf("onFail fired %d times, want 3", failed)
	}
	if len(r.inflight) != 0 {
		t.Fatalf("inflight = %d after FailInflight", len(r.inflight))
	}
	_ = eng.Run(time.Minute)
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowEmptySnapshotDispositions covers the zero-capacity edges:
// an empty window snapshots and restores as a no-op, and restoring an
// empty snapshot onto a window with live exchanges fails every one of
// them — the snapshot knows no exchange, so they are all post-cut.
func TestWindowEmptySnapshotDispositions(t *testing.T) {
	eng, net := lossyPair(t, 0, 9)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})

	empty := r.Snapshot()
	if err := r.Restore(empty); err != nil {
		t.Fatalf("Restore of empty snapshot on empty window: %v", err)
	}
	if n := r.FailInflight(); n != 0 {
		t.Fatalf("FailInflight on empty window = %d, want 0", n)
	}
	if err := r.Restore(nil); err == nil {
		t.Fatal("Restore accepted a nil buffer")
	}

	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	failed := 0
	for i := 0; i < 3; i++ {
		r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"}, nil, func() { failed++ })
	}
	if err := r.Restore(empty); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if failed != 3 || len(r.inflight) != 0 {
		t.Fatalf("failed=%d inflight=%d, want 3/0 after empty-snapshot restore",
			failed, len(r.inflight))
	}
	if got := r.Requeued.Value(); got != 0 {
		t.Fatalf("Requeued = %d, want 0", got)
	}
	_ = eng.Run(time.Minute)
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowTruncatedSnapshotRejected pins the decode guard: a snapshot
// cut short anywhere must be rejected with an error and must leave the
// live window untouched — no exchange failed, requeued, or lost.
func TestWindowTruncatedSnapshotRejected(t *testing.T) {
	eng, net := lossyPair(t, 0, 10)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	failed := 0
	for i := 0; i < 2; i++ {
		r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"}, nil, func() { failed++ })
	}
	snap := r.Snapshot()
	for cut := 1; cut < len(snap); cut += 7 {
		if err := r.Restore(snap[:len(snap)-cut]); err == nil {
			t.Fatalf("snapshot truncated by %d bytes accepted", cut)
		}
	}
	if len(r.inflight) != 2 || failed != 0 || r.Requeued.Value() != 0 {
		t.Fatalf("rejected restore disturbed the window: inflight=%d failed=%d requeued=%d",
			len(r.inflight), failed, r.Requeued.Value())
	}
	_ = eng.Run(time.Minute)
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowLateDuplicateAcksAfterRequeue covers the duplicate-seq
// edges: repeated restores requeue the same exchange without duplicating
// it, a late ACK from a pre-crash attempt still completes it (the seq
// survives the requeue), and the duplicate ACK that follows is counted
// as late and ignored rather than double-completing.
func TestWindowLateDuplicateAcksAfterRequeue(t *testing.T) {
	eng, net := lossyPair(t, 0, 11)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	acked := 0
	r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"}, func() { acked++ }, nil)
	snap := r.Snapshot()

	if err := r.Restore(snap); err != nil {
		t.Fatalf("first restore: %v", err)
	}
	if err := r.Restore(snap); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if got := r.Requeued.Value(); got != 2 {
		t.Fatalf("Requeued = %d, want 2 (one per restore)", got)
	}
	if len(r.inflight) != 1 {
		t.Fatalf("inflight = %d, want 1: requeue must not duplicate the exchange", len(r.inflight))
	}

	ack := Message{From: 1, To: 0, Size: 32, Kind: "rel:0:ack"}
	r.onReceive(0, ack)
	if acked != 1 || len(r.inflight) != 0 {
		t.Fatalf("acked=%d inflight=%d after late ACK, want 1/0", acked, len(r.inflight))
	}
	r.onReceive(0, ack)
	if acked != 1 {
		t.Fatalf("duplicate ACK double-completed the exchange: acked=%d", acked)
	}
	if got := r.LateAcks.Value(); got != 1 {
		t.Fatalf("LateAcks = %d, want 1", got)
	}
	_ = eng.Run(time.Minute)
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowSnapshotDoesNotResurrectRetiredSeq covers seq reuse across
// a failover: a snapshot naming an exchange that exhausted its budget
// between the cut and the restore must not resurrect the retired seq.
func TestWindowSnapshotDoesNotResurrectRetiredSeq(t *testing.T) {
	eng, net := lossyPair(t, 0, 12)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	r.MaxRetries = 0 // one attempt, then the budget is spent
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	failed := 0
	r.Send(Message{From: 0, To: 1, Size: 64, Kind: "order"}, nil, func() { failed++ })
	snap := r.Snapshot() // names the seq while it is still live

	_ = eng.Run(time.Minute)
	if failed != 1 || len(r.inflight) != 0 {
		t.Fatalf("failed=%d inflight=%d, want the exchange exhausted before restore",
			failed, len(r.inflight))
	}

	if err := r.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(r.inflight) != 0 || r.Requeued.Value() != 0 || failed != 1 {
		t.Fatalf("retired seq resurrected: inflight=%d requeued=%d failed=%d",
			len(r.inflight), r.Requeued.Value(), failed)
	}
	if err := net.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// allocBytes returns the bytes f allocates on the heap, the least of
// three runs: a fuzz worker's own goroutines allocate too. Every f here
// is a Restore, and repeating one re-applies the same disposition.
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

// blockedWindow returns a window holding two live exchanges over a link
// that drops everything, plus a snapshot naming both.
func blockedWindow(t testing.TB) (*Reliable, []byte) {
	t.Helper()
	eng, net := lossyPair(t, 0, 13)
	r := NewReliable(eng, net)
	r.Register(1, func(Message) {})
	net.SetHopFault(func(*Message) HopEffect { return HopEffect{Drop: true} })
	for _, kind := range []string{"order", "report"} {
		r.Send(Message{From: 0, To: 1, Size: 64, Kind: kind}, nil, nil)
	}
	return r, r.Snapshot()
}

// TestWindowRestoreRefusesClaimedCount: an 8-byte snapshot claiming a
// million exchanges is refused before anything is sized from the claim,
// and the live window is left as it was.
func TestWindowRestoreRefusesClaimedCount(t *testing.T) {
	r, _ := blockedWindow(t)
	e := checkpoint.NewEncoder()
	e.Int(1 << 20)
	var err error
	if grew := allocBytes(func() { err = r.Restore(e.Bytes()) }); grew > 4096 {
		t.Errorf("an %d-byte snapshot allocated %d bytes", e.Len(), grew)
	}
	if err == nil {
		t.Fatal("Restore accepted a count the snapshot cannot hold")
	}
	if len(r.inflight) != 2 || r.Requeued.Value() != 0 {
		t.Fatalf("refused restore disturbed the window: inflight=%d requeued=%d", len(r.inflight), r.Requeued.Value())
	}
}

// FuzzWindowRestore holds the ARQ snapshot decoder to the checkpoint
// contract: any input is refused or applied without a panic, decoding
// allocates in proportion to the input, and once an input is accepted
// the window's snapshot is a fixed point of a second Restore/Snapshot.
func FuzzWindowRestore(f *testing.F) {
	r, snap := blockedWindow(f)
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(r.Snapshot()[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, _ := blockedWindow(t)
		var err error
		// The two live exchanges may be failed or requeued; the slack
		// covers their callbacks, the requeue and the error.
		if grew, limit := allocBytes(func() { err = r.Restore(data) }), uint64(16*len(data)+8192); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte snapshot, limit %d", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		once := r.Snapshot()
		if err := r.Restore(once); err != nil {
			t.Fatalf("window refused its own snapshot: %v", err)
		}
		if twice := r.Snapshot(); !bytes.Equal(once, twice) {
			t.Fatalf("snapshot is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
