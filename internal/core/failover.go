package core

import (
	"hash/fnv"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/compose"
	"iobt/internal/fault"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/track"
)

// This file is the command-post survivability layer. The command post
// is the mission's single richest state concentration — composite roll,
// trust ledger, track picture, unacknowledged command traffic — and the
// paper's threat model makes it a priority target. Three dispositions
// are modeled when it dies:
//
//	none — no promotion: the mission limps on its degradation reflexes
//	       (intent fallback) or stalls.
//	cold — a successor is promoted after coldRebuild: all
//	       post-local state is rebuilt from scratch, in-flight command
//	       traffic fails loudly.
//	warm — a successor is promoted after warmHandover: state is
//	       restored from the last periodic checkpoint and the
//	       checkpointed ARQ window is requeued, re-addressed to the
//	       successor.
//
// E15 measures the recovery gap (orders lost, time-to-resume, stale
// trust, track fragmentation) across the three dispositions and the
// checkpoint cadence.

// startCheckpoints builds and starts the checkpoint coordinator when
// the mission enables a cadence. Called from Start.
func (r *Runtime) startCheckpoints() {
	if r.Mission.CheckpointEvery <= 0 {
		return
	}
	r.coord = checkpoint.NewCoordinator(r.W.Eng, r.Mission.CheckpointEvery)
	// A cut that shares a timestamp with the crash would snapshot
	// destroyed state; skip cuts while no post is standing.
	r.coord.Gate = func() bool { return !r.postDown }
	r.coord.OnCheckpoint = func(ck *checkpoint.Checkpoint) {
		r.journalf("checkpoint seq=%d digest=%016x", ck.Seq, ck.Digest())
	}
	r.coord.Register(r)
	r.coord.Register(r.W.Trust)
	if r.tracker != nil {
		r.coord.Register(r.tracker)
	}
	if r.rel != nil {
		r.coord.Register(r.rel)
	}
	r.coord.Start()
}

// Checkpoints returns the checkpoint coordinator (nil unless the
// mission set CheckpointEvery and the runtime started).
func (r *Runtime) Checkpoints() *checkpoint.Coordinator { return r.coord }

// SetJournal installs a decision journal; every mission decision is
// appended to it, so two runs from the same seed and fault plan can be
// diffed for divergence (checkpoint.VerifyEquivalence).
func (r *Runtime) SetJournal(j *checkpoint.Journal) { r.journal = j }

// journalf appends one timestamped decision-log line when a journal is
// installed.
func (r *Runtime) journalf(format string, args ...any) {
	if r.journal != nil {
		r.journal.Logf(r.W.Eng.Now(), format, args...)
	}
}

// AttachTracker couples a track picture to the mission as command-post
// state: it is wiped by a post crash and checkpointed/restored by the
// failover subsystem. Call before Start.
func (r *Runtime) AttachTracker(tr *track.Tracker) { r.tracker = tr }

// Tracker returns the attached track picture (nil if none).
func (r *Runtime) Tracker() *track.Tracker { return r.tracker }

// PostDown reports whether the command post has been destroyed and no
// successor has been promoted yet.
func (r *Runtime) PostDown() bool { return r.postDown }

// CrashPost destroys the current command post and everything that lived
// on it: the node dies, the trust ledger and track picture are wiped,
// and implicit re-promotion (repickSink) is disabled until Failover
// decides the disposition. In-flight ARQ exchanges are left to their
// retry budgets — with no post standing they drain into Undeliverable
// unless a warm failover requeues them first.
func (r *Runtime) CrashPost() {
	if r.sink == asset.None || !r.sinkAlive() {
		r.repickSink()
	}
	old := r.sink
	if old == asset.None {
		return
	}
	r.W.Pop.Kill(old)
	r.W.Net.Refresh()
	r.postDown = true
	r.sink = asset.None
	r.W.Trust.Reset()
	if r.tracker != nil {
		r.tracker.Reset()
	}
	r.journalf("crash post=%d", old)
	r.setHealth(r.computeHealth(r.coverageHolds()))
}

// Failover promotes a successor command post after a CrashPost. The
// promotion is not instant: a warm successor pays warmHandover
// to load the last checkpoint; a cold one pays coldRebuild to
// rebuild state from scratch. Until the delay elapses the mission has
// no post. Warm promotion falls back to cold when no checkpoint exists.
func (r *Runtime) Failover(warm bool) {
	if !r.postDown {
		return
	}
	if warm && (r.coord == nil || r.coord.Last() == nil) {
		warm = false
	}
	if warm {
		r.W.Eng.Schedule(warmHandover, "core.failover.warm", func() { r.promoteWarm() })
		return
	}
	r.W.Eng.Schedule(coldRebuild, "core.failover.cold", func() { r.promoteCold() })
}

// promoteWarm installs the successor and restores every checkpointed
// section: runtime mission state, trust ledger, track picture, and the
// ARQ window (requeued, re-addressed from the dead post to the
// successor).
func (r *Runtime) promoteWarm() {
	old, successor := r.sink, r.W.PickCommandPost()
	if successor == asset.None {
		r.journalf("failover warm: no successor")
		return
	}
	// Checkpointed traffic addressed to (or authored by) a dead post
	// must re-home to the successor as it is requeued.
	if r.rel != nil {
		r.rel.Readdress = func(m mesh.Message) mesh.Message {
			if m.To != successor && !r.aliveNode(m.To) {
				m.To = successor
			}
			if m.From != successor && !r.aliveNode(m.From) {
				m.From = successor
			}
			return m
		}
	}
	if err := r.coord.RestoreLast(); err != nil {
		r.journalf("failover warm: restore failed: %v", err)
	}
	// The checkpoint named the dead post as sink; the successor takes
	// over from here.
	r.postDown = false
	r.sink = successor
	r.registerNode(successor)
	r.Metrics.Failovers.Inc()
	ck := r.coord.Last()
	r.journalf("failover warm old=%d new=%d ckseq=%d age=%s", old, successor, ck.Seq, r.W.Eng.Now()-ck.At)
	r.setHealth(r.computeHealth(r.coverageHolds()))
}

// promoteCold installs the successor with no inherited state: the
// in-flight window fails loudly, the trust ledger and track picture
// stay empty (they were wiped at the crash), and the composite is
// re-evaluated by the normal repair reflex.
func (r *Runtime) promoteCold() {
	old, successor := r.sink, r.W.PickCommandPost()
	if successor == asset.None {
		r.journalf("failover cold: no successor")
		return
	}
	failed := 0
	if r.rel != nil {
		failed = r.rel.FailInflight()
	}
	r.postDown = false
	r.sink = successor
	r.registerNode(successor)
	r.Metrics.Failovers.Inc()
	r.journalf("failover cold old=%d new=%d failed=%d", old, successor, failed)
	r.setHealth(r.computeHealth(r.coverageHolds()))
}

// aliveNode reports whether id names a live, online asset.
func (r *Runtime) aliveNode(id asset.ID) bool {
	a := r.W.Pop.Get(id)
	return a != nil && a.Alive() && a.Online
}

// SnapshotName implements checkpoint.Snapshotter for the runtime's own
// mission state.
func (r *Runtime) SnapshotName() string { return "runtime" }

// Snapshot encodes the command post's mission state: the composite
// roll, the sink, the (possibly relaxed) coverage requirement, and the
// command-continuity reflex state.
func (r *Runtime) Snapshot() []byte {
	e := checkpoint.NewEncoder()
	e.Grow(r.snapLen)
	e.Int64(int64(r.sink))
	compose.EncodeComposite(e, r.comp)
	e.Int(r.req.NeedCells)
	e.Int(r.relaxSteps)
	e.Bool(r.fellBack)
	e.Int(r.orderFails)
	e.Int(r.nextIncID)
	e.Int(int(r.health))
	r.snapLen = e.Len()
	return e.Bytes()
}

// Restore applies a runtime snapshot (the warm-promotion path). The
// snapshot's sink is the post that took the checkpoint — usually dead
// by now — so promoteWarm overrides it after restoring.
func (r *Runtime) Restore(data []byte) error {
	d := checkpoint.NewDecoder(data)
	sink := asset.ID(d.Int64())
	comp := compose.DecodeComposite(d)
	needCells := d.Int()
	relaxSteps := d.Int()
	fellBack := d.Bool()
	orderFails := d.Int()
	nextIncID := d.Int()
	health := HealthState(d.Int())
	if d.Err() != nil {
		return d.Err()
	}
	r.sink = sink
	if comp != nil {
		r.install(comp)
	}
	r.req.NeedCells = needCells
	r.relaxSteps = relaxSteps
	r.fellBack = fellBack
	r.orderFails = orderFails
	// Incident identity is mission-global, like the metrics: rolling the
	// counter back to the checkpoint would hand post-restore incidents
	// IDs already marked resolved, silently dropping their completions.
	if nextIncID > r.nextIncID {
		r.nextIncID = nextIncID
	}
	r.health = health
	return nil
}

// Fingerprint digests every mission metric into one value, so two runs
// can be compared for bit-identical outcomes (the golden determinism
// regression and the replay verifier both use it). Series contribute
// their full shape (count, sum, extrema), counters their value.
func (m *Metrics) Fingerprint() uint64 {
	e := checkpoint.NewEncoder()
	for _, c := range []*sim.Counter{
		&m.Incidents, &m.Detected, &m.Acted, &m.OnTime, &m.Undeliverable,
		&m.Repairs, &m.Fallbacks, &m.Restores, &m.Relaxations,
		&m.HealthChanges, &m.OrdersCarried, &m.Failovers,
	} {
		e.Uint64(c.Value())
	}
	for _, s := range []*sim.Series{&m.DecisionLatency, &m.RepairTime} {
		e.Int(s.N())
		e.Float64(s.Sum())
		if s.N() > 0 {
			e.Float64(s.Min())
			e.Float64(s.Max())
		}
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64()
}

// recoveryHooks returns the mission surfaces fault.Run samples to
// measure a failover's recovery gap.
func (r *Runtime) recoveryHooks() fault.RecoveryHooks {
	return fault.RecoveryHooks{
		OrdersDelivered: func() uint64 { return r.Metrics.OrdersCarried.Value() },
		OrdersLost:      func() uint64 { return r.Metrics.Undeliverable.Value() },
		TrustEvidence:   func() float64 { return r.W.Trust.EvidenceTotal() },
		ConfirmedTracks: func() int {
			if r.tracker == nil {
				return 0
			}
			return r.tracker.ConfirmedCount()
		},
		PostUp: func() bool { return !r.postDown && r.sink != asset.None && r.sinkAlive() },
	}
}

var _ checkpoint.Snapshotter = (*Runtime)(nil)
