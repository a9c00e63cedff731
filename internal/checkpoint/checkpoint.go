// Package checkpoint is the mission state durability layer: periodic,
// consistent snapshots of every component that holds command-post state
// (composite membership, trust scores, track hypotheses, reliable
// transfer windows), so a successor post can be promoted warm — restored
// from the last checkpoint — instead of rebuilt cold from nothing.
//
// The paper (§IV) demands IoBTs that "survive in the presence of
// failures, attacks and compromises" and recompose around lost nodes;
// comms-side reflexes (ARQ, command fallback) cannot recover state that
// existed only in a destroyed node's memory. Checkpointing makes that
// state durable, and — because every encoding is deterministic — also
// verifiable: the companion replay verifier (replay.go) re-runs a
// mission from seed + fault plan and asserts the decision logs and
// checkpoint digests are byte-identical.
package checkpoint

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"iobt/internal/sim"
)

// Snapshotter is implemented by components that can capture and restore
// their mission-critical state. Snapshot must be deterministic: the
// same logical state always encodes to the same bytes (sort map keys,
// use the codec in codec.go). Restore replaces the component's state
// with the decoded snapshot.
type Snapshotter interface {
	// SnapshotName identifies the component's section in a checkpoint.
	// Names must be unique per coordinator.
	SnapshotName() string
	// Snapshot encodes the component's current state.
	Snapshot() []byte
	// Restore replaces the component's state from an encoding.
	Restore(data []byte) error
}

// Section is one component's captured state inside a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Checkpoint is a consistent cut across all registered components,
// taken at a single virtual instant (the sim is single-threaded, so a
// synchronous sweep is automatically consistent).
type Checkpoint struct {
	// Seq is the checkpoint sequence number (1-based).
	Seq int
	// At is the virtual time of the cut.
	At time.Duration
	// Sections hold each component's encoding, in registration order.
	Sections []Section
}

// Bytes returns the total encoded size of all sections.
func (c *Checkpoint) Bytes() int {
	n := 0
	for _, s := range c.Sections {
		n += len(s.Data)
	}
	return n
}

// Section returns the named section's data, or nil.
func (c *Checkpoint) Section(name string) []byte {
	for _, s := range c.Sections {
		if s.Name == name {
			return s.Data
		}
	}
	return nil
}

// Digest returns an FNV-1a hash over all sections in name order —
// a stable fingerprint of the captured state, independent of
// registration order.
func (c *Checkpoint) Digest() uint64 {
	names := make([]string, 0, len(c.Sections))
	byName := make(map[string][]byte, len(c.Sections))
	for _, s := range c.Sections {
		names = append(names, s.Name)
		byName[s.Name] = s.Data
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		_, _ = h.Write([]byte(name))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write(byName[name])
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// MinEvery is the shortest periodic cadence a scenario file or command
// line may ask for (0 still disables). Every cut captures, and in the
// service persists, the whole mission state, so a nanosecond cadence
// keeps the engine cutting forever instead of advancing the mission.
const MinEvery = time.Second

// Coordinator drives the checkpoint cadence on the sim engine and keeps
// the most recent checkpoint for restore.
type Coordinator struct {
	eng   *sim.Engine
	comps []Snapshotter
	every time.Duration
	tick  *sim.Ticker
	last  *Checkpoint
	seq   int

	// Gate, when set, is consulted before each periodic checkpoint; a
	// false return skips the cut (e.g. the command post is down and a
	// snapshot now would capture the crashed state).
	Gate func() bool
	// OnCheckpoint, when set, observes each completed cut (journaling).
	OnCheckpoint func(*Checkpoint)

	// Taken counts checkpoints captured; Skipped counts gated ticks;
	// Restores counts RestoreLast calls; BytesTotal accumulates encoded
	// checkpoint sizes.
	Taken      sim.Counter
	Skipped    sim.Counter
	Restores   sim.Counter
	BytesTotal sim.Counter
}

// NewCoordinator returns a coordinator with the given cadence (which
// must be positive for Start to do anything).
func NewCoordinator(eng *sim.Engine, every time.Duration) *Coordinator {
	return &Coordinator{eng: eng, every: every}
}

// Register adds a component to every subsequent checkpoint. Section
// order follows registration order.
func (c *Coordinator) Register(s Snapshotter) {
	c.comps = append(c.comps, s)
}

// Start begins the periodic cadence. A non-positive interval disables
// periodic checkpoints (TakeNow still works).
func (c *Coordinator) Start() {
	if c.tick != nil || c.every <= 0 {
		return
	}
	c.tick = c.eng.Every(c.every, "checkpoint.tick", func() {
		if c.Gate != nil && !c.Gate() {
			c.Skipped.Inc()
			return
		}
		c.TakeNow()
	})
}

// Stop halts the periodic cadence.
func (c *Coordinator) Stop() {
	if c.tick != nil {
		c.tick.Stop()
		c.tick = nil
	}
}

// TakeNow captures a checkpoint immediately and makes it the restore
// point.
func (c *Coordinator) TakeNow() *Checkpoint {
	c.seq++
	ck := &Checkpoint{Seq: c.seq, At: c.eng.Now()}
	for _, s := range c.comps {
		ck.Sections = append(ck.Sections, Section{Name: s.SnapshotName(), Data: s.Snapshot()})
	}
	c.last = ck
	c.Taken.Inc()
	c.BytesTotal.Add(ck.Bytes())
	if c.OnCheckpoint != nil {
		c.OnCheckpoint(ck)
	}
	return ck
}

// Capture encodes every registered component exactly like TakeNow but
// with no side effects: the sequence counter, the restore point, the
// counters, and the OnCheckpoint observer are all untouched. The
// mission service uses it to compare live state against a persisted
// snapshot without perturbing the run being compared.
func (c *Coordinator) Capture() *Checkpoint {
	ck := &Checkpoint{Seq: c.seq, At: c.eng.Now()}
	for _, s := range c.comps {
		ck.Sections = append(ck.Sections, Section{Name: s.SnapshotName(), Data: s.Snapshot()})
	}
	return ck
}

// Last returns the most recent checkpoint, nil before the first cut.
func (c *Coordinator) Last() *Checkpoint { return c.last }

// RestoreLast replays the most recent checkpoint into every registered
// component, in registration order. It returns an error naming the
// first component whose Restore failed, or when no checkpoint exists.
func (c *Coordinator) RestoreLast() error {
	if c.last == nil {
		return fmt.Errorf("checkpoint: no checkpoint to restore")
	}
	return c.RestoreCheckpoint(c.last, nil)
}

// RestoreCheckpoint replays an arbitrary checkpoint — typically one
// recovered from a journal file rather than taken this run — into the
// registered components, in registration order. include, when non-nil,
// filters by section name; a false return skips that component (the
// mission service skips the ARQ window, whose Restore deliberately
// requeues in-flight traffic — failover semantics, not replay
// semantics). Components without a matching section are skipped.
func (c *Coordinator) RestoreCheckpoint(ck *Checkpoint, include func(name string) bool) error {
	if ck == nil {
		return fmt.Errorf("checkpoint: no checkpoint to restore")
	}
	for _, s := range c.comps {
		name := s.SnapshotName()
		if include != nil && !include(name) {
			continue
		}
		data := ck.Section(name)
		if data == nil {
			// Component registered after the cut: nothing to restore.
			continue
		}
		if err := s.Restore(data); err != nil {
			return fmt.Errorf("checkpoint: restore %s: %w", name, err)
		}
	}
	c.Restores.Inc()
	return nil
}
