package core_test

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/track"
	"iobt/internal/verify"
)

// failoverMission builds a hierarchy+ARQ mission with checkpoints and a
// deterministic track scenario, runs it under a crash(+failover) plan,
// and returns the runtime, report, and world.
func runFailover(t *testing.T, seed int64, every time.Duration, plan *fault.Plan, journal *checkpoint.Journal) (*core.Runtime, *fault.Report, *core.World) {
	t.Helper()
	w := core.NewWorld(core.WorldConfig{Seed: seed, Terrain: geo.NewOpenTerrain(1200, 1200), Assets: 250})
	m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 1000, Y: 1000}))
	m.Goal.CoverageFrac = 0.4
	m.Command = core.CommandHierarchy
	m.ReliableOrders = true
	m.IncidentsPerMin = 30
	m.CheckpointEvery = every
	m.TrustAudit = true
	r := core.NewRuntime(w, m)
	r.SetJournal(journal)

	// A deterministic target picture fused at the post: three crossing
	// targets observed once a second.
	tracker := track.NewTracker(track.Config{})
	r.AttachTracker(tracker)
	w.Eng.Every(time.Second, "test.targets", func() {
		ts := w.Eng.Now().Seconds()
		tracker.Observe(w.Eng.Now(), []track.Detection{
			{Pos: geo.Point{X: 200 + 3*ts, Y: 300}, Var: 9, Sensor: 1},
			{Pos: geo.Point{X: 900 - 2*ts, Y: 600}, Var: 9, Sensor: 2},
			{Pos: geo.Point{X: 550, Y: 200 + 2.5*ts}, Var: 9, Sensor: 3},
		})
	})

	if err := r.Synthesize(); err != nil {
		t.Skip("sparse world")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	reg := verify.NewRegistry()
	reg.Add(verify.MissionInvariants(w, r)...)
	reg.Arm(w.Eng, time.Second)
	rep, err := fault.Run(w.FaultTarget(r), plan, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Violations()) > 0 {
		t.Fatalf("%s: invariant violations: %v", plan.Name, reg.Violations())
	}
	r.Stop()
	w.Stop()
	return r, rep, w
}

func crashPlan(mode string) *fault.Plan {
	p := &fault.Plan{Name: "crash-" + mode}
	p.Add(fault.Fault{Kind: fault.CrashPost, At: 119 * time.Second})
	switch mode {
	case "warm":
		p.Add(fault.Fault{Kind: fault.Failover, At: 119*time.Second + 500*time.Millisecond, Warm: true})
	case "cold":
		p.Add(fault.Fault{Kind: fault.Failover, At: 119*time.Second + 500*time.Millisecond, Warm: false})
	}
	return p
}

// TestFailoverWarmBeatsCold is the tentpole property: at the same seed
// and crash time, a warm-promoted successor loses fewer orders and
// resumes faster than a cold-promoted one, which in turn beats no
// promotion at all.
func TestFailoverWarmBeatsCold(t *testing.T) {
	const seed = 11
	_, warm, _ := runFailover(t, seed, 15*time.Second, crashPlan("warm"), nil)
	_, cold, _ := runFailover(t, seed, 15*time.Second, crashPlan("cold"), nil)
	_, none, _ := runFailover(t, seed, 15*time.Second, crashPlan("none"), nil)

	for name, rep := range map[string]*fault.Report{"warm": warm, "cold": cold, "none": none} {
		if len(rep.Recovery) != 1 {
			t.Fatalf("%s: %d recovery gaps, want 1", name, len(rep.Recovery))
		}
	}
	gw, gc, gn := warm.Recovery[0], cold.Recovery[0], none.Recovery[0]
	t.Logf("warm: %s", gw)
	t.Logf("cold: %s", gc)
	t.Logf("none: %s", gn)

	if !gw.Resumed {
		t.Fatal("warm failover did not resume command")
	}
	if !gc.Resumed {
		t.Fatal("cold failover did not resume command")
	}
	if gn.Resumed {
		t.Error("no-failover run resumed command; repickSink leak past postDown?")
	}
	if gw.TimeToResume >= gc.TimeToResume {
		t.Errorf("warm resume %s not faster than cold %s", gw.TimeToResume, gc.TimeToResume)
	}
	if gw.OrdersLost > gc.OrdersLost {
		t.Errorf("warm lost %d orders, cold lost %d", gw.OrdersLost, gc.OrdersLost)
	}
	if gc.OrdersLost > gn.OrdersLost {
		t.Errorf("cold lost %d orders, none lost %d", gc.OrdersLost, gn.OrdersLost)
	}
	// Warm restores the checkpointed trust ledger; cold rebuilds from
	// nothing, so everything the ledger held goes stale.
	if gw.StaleTrust >= gc.StaleTrust {
		t.Errorf("warm stale trust %.2f not below cold %.2f", gw.StaleTrust, gc.StaleTrust)
	}
	// Warm restores the track picture; cold re-acquires every target.
	if gw.TrackFrag > gc.TrackFrag {
		t.Errorf("warm track frag %d above cold %d", gw.TrackFrag, gc.TrackFrag)
	}
}

// TestFailoverDeterministicFingerprint runs the warm-failover mission
// twice at the same seed and requires bit-identical metrics.
func TestFailoverDeterministicFingerprint(t *testing.T) {
	r1, _, _ := runFailover(t, 23, 15*time.Second, crashPlan("warm"), nil)
	r2, _, _ := runFailover(t, 23, 15*time.Second, crashPlan("warm"), nil)
	if f1, f2 := r1.Metrics.Fingerprint(), r2.Metrics.Fingerprint(); f1 != f2 {
		t.Errorf("same-seed warm failover fingerprints differ: %016x vs %016x", f1, f2)
	}
}

// TestReplayVerifyFailoverPlan replays the full crash+warm-failover
// mission from its journal and requires zero divergence: the decision
// log — every incident, action, checkpoint digest, crash, and
// promotion — must be byte-identical across runs.
func TestReplayVerifyFailoverPlan(t *testing.T) {
	plan := crashPlan("warm")
	run := func(j *checkpoint.Journal) { runFailover(t, 31, 15*time.Second, plan, j) }
	if div := checkpoint.VerifyEquivalence(31, plan.String(), run, run); div != nil {
		t.Errorf("replay diverged at line %d:\n  run A: %s\n  run B: %s", div.Index, div.A, div.B)
	}
}

// TestWarmFailoverJournalsRestoreFailure: when a section of the last
// checkpoint fails its Restore, warm promotion records the failure in
// the decision journal, naming the section, instead of resuming as if
// the state were intact. The section here is one byte longer than its
// codec reads, which is what a Snapshot that writes a field its Restore
// never reads produces.
func TestWarmFailoverJournalsRestoreFailure(t *testing.T) {
	w := core.NewWorld(core.WorldConfig{Seed: 3, Terrain: geo.NewOpenTerrain(800, 800), Assets: 120})
	m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 600, Y: 600}))
	m.Goal.CoverageFrac = 0.3
	m.Command = core.CommandHierarchy
	m.CheckpointEvery = 10 * time.Second
	r := core.NewRuntime(w, m)
	j := checkpoint.NewJournal(3, "")
	r.SetJournal(j)
	if err := r.Synthesize(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	defer r.Stop()
	if err := w.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck := r.Checkpoints().Last()
	for i := range ck.Sections {
		if ck.Sections[i].Name == "trust" {
			ck.Sections[i].Data = append(ck.Sections[i].Data, 0)
		}
	}
	r.CrashPost()
	r.Failover(true)
	if err := w.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := j.String(); !strings.Contains(got, "failover warm: restore failed: checkpoint: restore trust:") {
		t.Fatalf("journal does not report the failed trust restore:\n%s", got)
	}
}

// startedRuntime returns a started hierarchy+ARQ runtime on a small
// world, the shape whose Restore has the most to apply.
func startedRuntime(t testing.TB) *core.Runtime {
	t.Helper()
	w := core.NewWorld(core.WorldConfig{Seed: 3, Terrain: geo.NewOpenTerrain(800, 800), Assets: 120})
	m := core.DefaultMission(geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 600, Y: 600}))
	m.Goal.CoverageFrac = 0.3
	m.Command = core.CommandHierarchy
	m.ReliableOrders = true
	r := core.NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// allocBytes returns the bytes f allocates on the heap, the least of
// three runs: a fuzz worker's own goroutines allocate too. Every f here
// is a Restore, and repeating one re-applies the same state.
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

// FuzzRuntimeRestore holds the runtime's snapshot decoder, composite
// roll included, to the checkpoint contract: any input is refused or
// applied without a panic, decoding allocates in proportion to the
// input, and once an input is accepted the runtime's snapshot is a
// fixed point of a second Restore/Snapshot.
func FuzzRuntimeRestore(f *testing.F) {
	snap := startedRuntime(f).Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)-1])
	f.Add(snap[:16])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := startedRuntime(t)
		defer r.W.Stop()
		defer r.Stop()
		var err error
		// A member is 8 bytes in; installing it costs a map slot and,
		// under hierarchy command, a handler registration.
		if grew, limit := allocBytes(func() { err = r.Restore(data) }), uint64(64*len(data)+8192); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte snapshot, limit %d", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		once := r.Snapshot()
		if err := r.Restore(once); err != nil {
			t.Fatalf("runtime refused its own snapshot: %v", err)
		}
		if twice := r.Snapshot(); !bytes.Equal(once, twice) {
			t.Fatalf("snapshot is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
