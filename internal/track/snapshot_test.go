package track

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/geo"
)

func TestTrackerSnapshotRoundTrip(t *testing.T) {
	tr := NewTracker(Config{})
	// Feed two targets long enough to confirm both.
	for i := 0; i < 5; i++ {
		now := time.Duration(i) * time.Second
		tr.Observe(now, []Detection{
			{Pos: geo.Point{X: 100 + float64(i)*5, Y: 200}, Var: 4, Sensor: 1},
			{Pos: geo.Point{X: 800, Y: 600 - float64(i)*3}, Var: 4, Sensor: 2},
		})
	}
	if tr.ConfirmedCount() != 2 {
		t.Fatalf("confirmed = %d, want 2", tr.ConfirmedCount())
	}

	snap := tr.Snapshot()
	restored := NewTracker(Config{})
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ConfirmedCount() != 2 {
		t.Fatalf("restored confirmed = %d, want 2", restored.ConfirmedCount())
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Error("restored tracker snapshot differs from original")
	}

	// The restored tracker must continue identically to the original:
	// same association, same estimates.
	next := []Detection{{Pos: geo.Point{X: 130, Y: 200}, Var: 4, Sensor: 1}}
	tr.Observe(6*time.Second, next)
	restored.Observe(6*time.Second, next)
	if !bytes.Equal(tr.Snapshot(), restored.Snapshot()) {
		t.Error("original and restored trackers diverged after identical input")
	}
}

func TestTrackerResetCountsDrops(t *testing.T) {
	tr := NewTracker(Config{})
	for i := 0; i < 5; i++ {
		tr.Observe(time.Duration(i)*time.Second,
			[]Detection{{Pos: geo.Point{X: 100, Y: 200}, Var: 4, Sensor: 1}})
	}
	if tr.ConfirmedCount() != 1 {
		t.Fatalf("confirmed = %d, want 1", tr.ConfirmedCount())
	}
	tr.Reset()
	if tr.ConfirmedCount() != 0 || len(tr.All()) != 0 {
		t.Error("Reset should discard every hypothesis")
	}
	if tr.Dropped != 1 {
		t.Errorf("Dropped = %d after Reset, want 1", tr.Dropped)
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

// TestTrackerRestoreRefusesClaimedCount: a track count that is negative
// or larger than the snapshot can hold, and a sensor count of either
// kind, are refused with an error, not a panic or a table sized from
// the claim.
func TestTrackerRestoreRefusesClaimedCount(t *testing.T) {
	header := func(tracks int) *checkpoint.Encoder {
		e := checkpoint.NewEncoder()
		e.Int(1)   // nextID
		e.Int64(0) // now
		e.Int(tracks)
		return e
	}
	withSensors := func(sensors int64) []byte { // 64-bit, so 1<<40 builds on 32-bit hosts too
		e := header(1)
		for range 24 { // ID, LastUpdate, Hits, X, P, Q
			e.Int(0)
		}
		e.Int64(sensors) // the wire form of Int
		return e.Bytes()
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"negative tracks", header(-1).Bytes()},
		{"claimed tracks", header(1 << 20).Bytes()},
		{"negative sensors", withSensors(-1)},
		{"claimed sensors", withSensors(1 << 40)},
	} {
		name, data := c.name, c.data
		tr := NewTracker(Config{})
		var err error
		if grew := allocBytes(func() { err = tr.Restore(data) }); grew > 4096 {
			t.Errorf("%s: a %d-byte snapshot allocated %d bytes", name, len(data), grew)
		}
		if err == nil {
			t.Errorf("%s: Restore accepted a count the snapshot cannot hold", name)
		}
	}
}

// FuzzTrackerRestore holds the track snapshot decoder to the checkpoint
// contract: any input is refused or applied without a panic, decoding
// allocates in proportion to the input, and once an input is accepted
// the tracker's snapshot is a fixed point of a second Restore/Snapshot.
func FuzzTrackerRestore(f *testing.F) {
	tr := NewTracker(Config{})
	for i := 0; i < 5; i++ {
		tr.Observe(time.Duration(i)*time.Second, []Detection{
			{Pos: geo.Point{X: 100 + float64(i)*5, Y: 200}, Var: 4, Sensor: 1},
			{Pos: geo.Point{X: 800, Y: 600}, Var: 4, Sensor: 2},
		})
	}
	snap := tr.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(snap[:24])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracker(Config{})
		var err error
		// A track is 200 bytes in and a Track, a filter and a sensor set
		// out; a sensor is 8 bytes in and a map slot out.
		if grew, limit := allocBytes(func() { err = tr.Restore(data) }), uint64(16*len(data)+4096); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte snapshot, limit %d", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		once := tr.Snapshot()
		if err := tr.Restore(once); err != nil {
			t.Fatalf("tracker refused its own snapshot: %v", err)
		}
		if twice := tr.Snapshot(); !bytes.Equal(once, twice) {
			t.Fatalf("snapshot is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
