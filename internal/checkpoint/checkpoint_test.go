package checkpoint

import (
	"math"
	"strings"
	"testing"
	"time"

	"iobt/internal/sim"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Uint64(42)
	e.Int64(-7)
	e.Int(123456)
	e.Float64(math.Pi)
	e.Float64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.String("composite")
	e.String("")

	d := NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 42 {
		t.Errorf("uint64: got %d", v)
	}
	if v := d.Int64(); v != -7 {
		t.Errorf("int64: got %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Errorf("int: got %d", v)
	}
	if v := d.Float64(); v != math.Pi {
		t.Errorf("float64: got %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, 1) {
		t.Errorf("inf: got %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool round trip failed")
	}
	if v := d.String(); v != "composite" {
		t.Errorf("string: got %q", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("empty string: got %q", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
}

// TestDecoderFinishRefusesUnreadBytes: a section read short of its end
// fails Finish, and the failure is sticky like a truncation.
func TestDecoderFinishRefusesUnreadBytes(t *testing.T) {
	e := NewEncoder()
	e.Int(1)
	e.Bool(true)
	d := NewDecoder(e.Bytes())
	_ = d.Int()
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "1 unread bytes at offset 8 of 9") {
		t.Fatalf("Finish = %v, want 1 unread byte reported", err)
	}
	if d.Err() == nil {
		t.Error("Finish's error is not sticky")
	}
}

func TestCodecTruncation(t *testing.T) {
	e := NewEncoder()
	e.String("hello")
	d := NewDecoder(e.Bytes()[:4])
	_ = d.String()
	if d.Err() == nil {
		t.Fatal("want truncation error")
	}
	// Sticky: further reads stay failed and return zero values.
	if v := d.Uint64(); v != 0 {
		t.Errorf("read after error: got %d", v)
	}
}

// fakeComp is a Snapshotter over a single int.
type fakeComp struct {
	name  string
	state int
}

func (f *fakeComp) SnapshotName() string { return f.name }
func (f *fakeComp) Snapshot() []byte {
	e := NewEncoder()
	e.Int(f.state)
	return e.Bytes()
}
func (f *fakeComp) Restore(data []byte) error {
	d := NewDecoder(data)
	f.state = d.Int()
	return d.Err()
}

func TestCoordinatorCadenceAndRestore(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &fakeComp{name: "a", state: 1}
	b := &fakeComp{name: "b", state: 10}
	c := NewCoordinator(eng, 10*time.Second)
	c.Register(a)
	c.Register(b)
	c.Start()

	// Mutate state over time so successive checkpoints differ.
	eng.Every(time.Second, "mutate", func() { a.state++; b.state++ })
	if err := eng.Run(35 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	if got := c.Taken.Value(); got != 3 {
		t.Fatalf("want 3 checkpoints over 35s at 10s cadence, got %d", got)
	}
	last := c.Last()
	if last == nil || last.Seq != 3 || last.At != 30*time.Second {
		t.Fatalf("unexpected last checkpoint: %+v", last)
	}

	// Damage the state, then restore the cut.
	a.state, b.state = -1, -1
	if err := c.RestoreLast(); err != nil {
		t.Fatal(err)
	}
	// At the shared t=30s timestamp the checkpoint event was queued
	// first (armed at t=20s, before the mutate ticker's t=29s arming),
	// so the cut sees 29 mutations.
	if a.state != 30 || b.state != 39 {
		t.Errorf("restored state (%d,%d), want (30,39)", a.state, b.state)
	}
}

func TestCoordinatorGate(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &fakeComp{name: "a"}
	c := NewCoordinator(eng, time.Second)
	c.Register(a)
	open := false
	c.Gate = func() bool { return open }
	c.Start()
	_ = eng.Run(3 * time.Second)
	if c.Taken.Value() != 0 || c.Skipped.Value() != 3 {
		t.Fatalf("gated: taken=%d skipped=%d", c.Taken.Value(), c.Skipped.Value())
	}
	open = true
	_ = eng.Run(2 * time.Second)
	if c.Taken.Value() != 2 {
		t.Fatalf("ungated: taken=%d", c.Taken.Value())
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	c := NewCoordinator(sim.NewEngine(1), time.Second)
	if err := c.RestoreLast(); err == nil {
		t.Fatal("want error restoring with no checkpoint")
	}
}

func TestDigestStableAcrossRegistrationOrder(t *testing.T) {
	mk := func(first, second *fakeComp) uint64 {
		eng := sim.NewEngine(1)
		c := NewCoordinator(eng, 0)
		c.Register(first)
		c.Register(second)
		return c.TakeNow().Digest()
	}
	d1 := mk(&fakeComp{name: "a", state: 5}, &fakeComp{name: "b", state: 6})
	d2 := mk(&fakeComp{name: "b", state: 6}, &fakeComp{name: "a", state: 5})
	if d1 != d2 {
		t.Errorf("digest depends on registration order: %x vs %x", d1, d2)
	}
	d3 := mk(&fakeComp{name: "a", state: 7}, &fakeComp{name: "b", state: 6})
	if d1 == d3 {
		t.Error("digest blind to state change")
	}
}

func TestJournalCompare(t *testing.T) {
	a := NewJournal(1, "plan p")
	b := NewJournal(1, "plan p")
	a.Logf(time.Second, "inc %d", 1)
	b.Logf(time.Second, "inc %d", 1)
	if d := Compare(a, b); d != nil {
		t.Fatalf("identical journals diverged: %v", d)
	}
	if a.Digest() != b.Digest() {
		t.Error("identical journals have different digests")
	}
	b.Logf(2*time.Second, "inc 2")
	d := Compare(a, b)
	if d == nil || d.Index != 1 {
		t.Fatalf("want divergence at 1, got %v", d)
	}
	a.Logf(2*time.Second, "inc 3")
	d = Compare(a, b)
	if d == nil || d.Index != 1 {
		t.Fatalf("want content divergence at 1, got %v", d)
	}
}

func TestVerifyReplay(t *testing.T) {
	run := func(j *Journal) {
		eng := sim.NewEngine(j.Seed)
		rng := eng.Stream("replay-test")
		eng.Every(time.Second, "tick", func() {
			j.Logf(eng.Now(), "draw %.6f", rng.Float64())
		})
		_ = eng.Run(5 * time.Second)
	}
	if d := VerifyEquivalence(7, "none", run, run); d != nil {
		t.Fatalf("deterministic run diverged: %v", d)
	}

	// A run that leaks nondeterminism (state surviving across runs)
	// must be caught.
	calls := 0
	bad := func(j *Journal) {
		calls++
		j.Logf(0, "call %d", calls)
	}
	if d := VerifyEquivalence(7, "none", bad, bad); d == nil {
		t.Fatal("nondeterministic run not caught")
	}
}
