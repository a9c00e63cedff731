package track

import (
	"sort"
	"time"

	"iobt/internal/checkpoint"
)

// Track state is command-post state: the post that fuses detections
// holds every hypothesis, so losing the post without a checkpoint means
// every target must be re-acquired and re-confirmed from scratch (track
// fragmentation). Snapshot/Restore make the tracker a
// checkpoint.Snapshotter so warm failover can hand the successor the
// full hypothesis set.

// ConfirmedCount returns the number of confirmed tracks (the harness
// samples it to measure fragmentation across a failover).
func (tr *Tracker) ConfirmedCount() int {
	n := 0
	for _, t := range tr.tracks {
		if t.Confirmed() {
			n++
		}
	}
	return n
}

// Reset discards every hypothesis, counting confirmed tracks as
// dropped. This is what a command-post crash does to an uncheckpointed
// tracker: the state dies with the node.
func (tr *Tracker) Reset() {
	for _, t := range tr.tracks {
		if t.Confirmed() {
			tr.Dropped++
		}
	}
	tr.tracks = nil
}

// SnapshotName implements checkpoint.Snapshotter.
func (tr *Tracker) SnapshotName() string { return "track" }

// Snapshot encodes every hypothesis deterministically (tracks in ID
// order, sensor sets sorted). Observer-side metrics (Dropped) are
// deliberately excluded: they describe what the mission experienced,
// not what the post knew, and restoring them would erase the record of
// a crash.
func (tr *Tracker) Snapshot() []byte {
	e := checkpoint.NewEncoder()
	e.Grow(tr.snapLen)
	e.Int(tr.nextID)
	e.Int64(int64(tr.now))
	ordered := make([]*Track, len(tr.tracks))
	copy(ordered, tr.tracks)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	e.Int(len(ordered))
	for _, t := range ordered {
		e.Int(t.ID)
		e.Int64(int64(t.LastUpdate))
		e.Int(t.Hits)
		for _, x := range t.kf.X {
			e.Float64(x)
		}
		for _, p := range t.kf.P {
			e.Float64(p)
		}
		e.Float64(t.kf.Q)
		sensors := make([]int32, 0, len(t.Sensors))
		for s := range t.Sensors {
			sensors = append(sensors, s)
		}
		sort.Slice(sensors, func(i, j int) bool { return sensors[i] < sensors[j] })
		e.Int(len(sensors))
		for _, s := range sensors {
			e.Int64(int64(s))
		}
	}
	tr.snapLen = e.Len()
	return e.Bytes()
}

// Restore replaces the hypothesis set from a snapshot.
func (tr *Tracker) Restore(data []byte) error {
	d := checkpoint.NewDecoder(data)
	nextID := d.Int()
	now := time.Duration(d.Int64())
	// ID, LastUpdate, Hits, X, P, Q and the sensor count: 25 words.
	n := d.Count(d.Int(), 25*8)
	if d.Err() != nil {
		return d.Err()
	}
	tracks := make([]*Track, 0, n)
	for i := 0; i < n; i++ {
		t := &Track{kf: &KalmanCV{}, Sensors: map[int32]bool{}}
		t.ID = d.Int()
		t.LastUpdate = time.Duration(d.Int64())
		t.Hits = d.Int()
		for k := range t.kf.X {
			t.kf.X[k] = d.Float64()
		}
		for k := range t.kf.P {
			t.kf.P[k] = d.Float64()
		}
		t.kf.Q = d.Float64()
		ns := d.Count(d.Int(), 8)
		if d.Err() != nil {
			return d.Err()
		}
		for s := 0; s < ns; s++ {
			t.Sensors[int32(d.Int64())] = true
		}
		tracks = append(tracks, t)
	}
	if d.Err() != nil {
		return d.Err()
	}
	tr.nextID = nextID
	tr.now = now
	tr.tracks = tracks
	return nil
}
