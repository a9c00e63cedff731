package track

import (
	"math"
	"sort"
	"time"

	"iobt/internal/geo"
)

// Detection is one noisy position report from a sensor.
type Detection struct {
	Pos geo.Point
	// Var is the per-axis measurement variance (sensor accuracy).
	Var float64
	// Sensor identifies the reporting asset (for handoff accounting).
	Sensor int32
}

// Track is one maintained target hypothesis.
type Track struct {
	ID int
	kf *KalmanCV
	// LastUpdate is the virtual time of the last associated detection.
	LastUpdate time.Duration
	// Hits counts associated detections; tracks below ConfirmHits are
	// tentative.
	Hits int
	// Sensors lists distinct sensors that contributed (handoff trail).
	Sensors map[int32]bool
}

// Pos returns the track's current position estimate.
func (t *Track) Pos() geo.Point { return t.kf.Pos() }

// Vel returns the track's velocity estimate.
func (t *Track) Vel() geo.Vec { return t.kf.Vel() }

// Confirmed reports whether the track has enough support.
func (t *Track) Confirmed() bool { return t.Hits >= 3 }

// Config parameterizes the tracker.
type Config struct {
	// ProcessNoise is the Kalman Q (default 2).
	ProcessNoise float64
}

const (
	// assocGate is the association gate in standard deviations.
	assocGate = 4
	// coastTime keeps an unassociated track alive this long.
	coastTime = 5 * time.Second
)

// assocPair is one gated track/detection candidate in the greedy GNN
// association.
type assocPair struct {
	ti, di int
	d      float64
}

// assocPairs sorts candidates closest-first with deterministic
// (ti, di) tie-breaks. It carries its own sort.Interface (on the
// pointer, so sorting boxes no slice header) instead of sort.Slice,
// which allocates a closure and a reflect-based swapper per call —
// Observe is the E13 per-tick hot path.
type assocPairs []assocPair

func (p *assocPairs) Len() int      { return len(*p) }
func (p *assocPairs) Swap(i, j int) { (*p)[i], (*p)[j] = (*p)[j], (*p)[i] }
func (p *assocPairs) Less(i, j int) bool {
	a, b := (*p)[i], (*p)[j]
	if a.d != b.d {
		return a.d < b.d
	}
	if a.ti != b.ti {
		return a.ti < b.ti
	}
	return a.di < b.di
}

// Tracker maintains multi-target tracks from detection batches.
type Tracker struct {
	cfg    Config
	tracks []*Track
	nextID int
	now    time.Duration

	// Association scratch, reused across Observe calls so the per-tick
	// steady state allocates nothing.
	pairBuf assocPairs
	usedT   []bool
	usedD   []bool

	// snapLen is the size of the last Snapshot, reserved up front for the
	// next: the hypothesis set changes little between two checkpoints.
	snapLen int

	// IDSwitches counts confirmed tracks dropped while their target was
	// still being detected nearby (continuity failures are counted by
	// the scenario harness; this counts hard drops).
	Dropped int
}

// NewTracker returns an empty tracker.
func NewTracker(cfg Config) *Tracker {
	if cfg.ProcessNoise <= 0 {
		cfg.ProcessNoise = 2
	}
	return &Tracker{cfg: cfg}
}

// Tracks returns the confirmed tracks.
func (tr *Tracker) Tracks() []*Track {
	out := make([]*Track, 0, len(tr.tracks))
	for _, t := range tr.tracks {
		if t.Confirmed() {
			out = append(out, t)
		}
	}
	return out
}

// All returns every track including tentative ones.
func (tr *Tracker) All() []*Track { return tr.tracks }

// Fix is a point-in-time export of one track for replication: the value
// side of the common operational picture's LWW registers (internal/cop).
type Fix struct {
	ID        int
	Pos       geo.Point
	Vel       geo.Vec
	Hits      int
	Confirmed bool
}

// Fixes exports every track, tentative ones included, ascending by ID.
func (tr *Tracker) Fixes() []Fix {
	out := make([]Fix, 0, len(tr.tracks))
	for _, t := range tr.tracks {
		out = append(out, Fix{ID: t.ID, Pos: t.Pos(), Vel: t.Vel(), Hits: t.Hits, Confirmed: t.Confirmed()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Observe advances all tracks to now, associates the detection batch
// (greedy nearest-neighbor within the gate), updates matched tracks,
// spawns tentative tracks for unmatched detections, and drops tracks
// that have coasted too long.
//
//iobt:hot
func (tr *Tracker) Observe(now time.Duration, detections []Detection) {
	dt := (now - tr.now).Seconds()
	tr.now = now
	for _, t := range tr.tracks {
		t.kf.Predict(dt)
	}

	// Build candidate pairs within gates, closest first (greedy GNN).
	// Scratch buffers persist on the tracker: E13 calls Observe every
	// tick, and regrowing pair/marker storage per call was the top
	// allocator in the tracking profile.
	pairs := tr.pairBuf[:0]
	for ti, t := range tr.tracks {
		gate := assocGate * math.Sqrt(t.kf.PosVar()+1)
		for di := range detections {
			d := t.kf.Pos().Dist(detections[di].Pos)
			if d <= gate {
				pairs = append(pairs, assocPair{ti, di, d})
			}
		}
	}
	tr.pairBuf = pairs
	sort.Sort(&tr.pairBuf)
	usedT := growMarkers(&tr.usedT, len(tr.tracks))
	usedD := growMarkers(&tr.usedD, len(detections))
	for _, p := range pairs {
		if usedT[p.ti] || usedD[p.di] {
			continue
		}
		usedT[p.ti] = true
		usedD[p.di] = true
		t := tr.tracks[p.ti]
		det := detections[p.di]
		t.kf.Update(det.Pos, det.Var)
		t.LastUpdate = now
		t.Hits++
		t.Sensors[det.Sensor] = true
	}

	// Spawn tentative tracks for unmatched detections — except those
	// inside an existing track's gate: when two sensors detect the same
	// target in an overlap zone, the surplus detection must not spawn a
	// duplicate track that would steal future detections and kill the
	// original (track-identity churn at handoff boundaries).
	for di := range detections {
		if usedD[di] {
			continue
		}
		det := detections[di]
		duplicate := false
		for _, t := range tr.tracks {
			gate := assocGate * math.Sqrt(t.kf.PosVar()+1)
			if t.kf.Pos().Dist(det.Pos) <= gate {
				duplicate = true
				break
			}
		}
		if duplicate {
			continue
		}
		// Spawning is the rare path by construction: it runs once per new
		// target entering the gate, not once per detection — steady-state
		// ticks re-associate into existing tracks and allocate nothing. A
		// spawn allocates 4 objects, living as long as the track: the
		// Track, its filter, and its sensor set's map header and group.
		t := &Track{
			ID:         tr.nextID,
			kf:         NewKalmanCV(det.Pos, det.Var, tr.cfg.ProcessNoise),
			LastUpdate: now,
			Hits:       1,
			Sensors:    map[int32]bool{det.Sensor: true},
		}
		tr.nextID++
		tr.tracks = append(tr.tracks, t)
	}

	// Drop stale tracks.
	keep := tr.tracks[:0]
	for _, t := range tr.tracks {
		if now-t.LastUpdate <= coastTime {
			keep = append(keep, t)
			continue
		}
		if t.Confirmed() {
			tr.Dropped++
		}
	}
	tr.tracks = keep
}

// growMarkers resizes *buf to n cleared entries, reallocating only
// when the retained capacity is outgrown.
//
//iobt:hot
func growMarkers(buf *[]bool, n int) []bool {
	s := *buf
	if cap(s) < n {
		// Grow-only: reallocates when the track or detection count
		// outgrows every previous tick, then the buffer is reused.
		s = make([]bool, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// Nearest returns the confirmed track closest to p and its distance, or
// nil when no confirmed track exists.
func (tr *Tracker) Nearest(p geo.Point) (*Track, float64) {
	var best *Track
	bestD := 0.0
	for _, t := range tr.tracks {
		if !t.Confirmed() {
			continue
		}
		d := t.Pos().Dist(p)
		if best == nil || d < bestD {
			best, bestD = t, d
		}
	}
	return best, bestD
}
