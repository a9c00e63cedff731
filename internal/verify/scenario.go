package verify

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/sim"
	"iobt/internal/track"
)

// Scenario is one fully-specified random mission: world, mission knobs,
// and fault plan, all derived deterministically from Seed. A scenario
// serializes to a small text file (String/ParseScenario) so any
// violation the fuzzer finds is replayable byte-for-byte.
type Scenario struct {
	// Seed drives every random stream in the run (world generation,
	// mobility, channel noise, fault victim selection).
	Seed int64
	// Assets is the approximate population size.
	Assets int
	// Size is the square map's side length in meters.
	Size float64
	// Terrain is open, urban, or sparse.
	Terrain string
	// Command is intent or hierarchy.
	Command string
	// Reliable carries command traffic over the ARQ layer.
	Reliable bool
	// Degrade enables the graceful-degradation reflexes.
	Degrade bool
	// Checkpoint is the checkpoint cadence (0 disables).
	Checkpoint time.Duration
	// Rate is the incident load in incidents per simulated minute.
	Rate float64
	// Horizon is the simulated mission duration.
	Horizon time.Duration
	// Track attaches a fused track picture to the command post.
	Track bool
	// Plan is the fault plan (nil or empty: a nominal run).
	Plan *fault.Plan
}

// Generate derives a random scenario from seed. The derivation is
// deterministic: the same seed always yields the same scenario, and the
// scenario's own Seed field reuses it, so Generate(seed) → Run is one
// reproducible unit.
func Generate(seed int64) Scenario {
	rng := sim.NewRNG(seed).Derive("verify.scenario")
	s := Scenario{
		Seed:    seed,
		Assets:  80 + 10*rng.Intn(14),
		Size:    600 + 100*float64(rng.Intn(9)),
		Terrain: [...]string{"open", "open", "urban", "sparse"}[rng.Intn(4)],
		Rate:    10 + 5*float64(rng.Intn(5)),
		Horizon: time.Duration(60+30*rng.Intn(4)) * time.Second,
		Command: "intent",
		Degrade: rng.Bool(0.5),
		Track:   rng.Bool(0.5),
	}
	if rng.Bool(0.5) {
		s.Command = "hierarchy"
		s.Reliable = rng.Bool(0.5)
		if s.Reliable && rng.Bool(0.5) {
			s.Checkpoint = [...]time.Duration{10 * time.Second, 15 * time.Second, 30 * time.Second}[rng.Intn(3)]
		}
	}
	s.Plan = randomPlan(rng, s)
	return s
}

// randomPlan draws 0–4 windowed/instant faults inside the horizon, plus
// — when the mission checkpoints — an optional crash/failover pair, so
// the fuzzer exercises the restore path too.
func randomPlan(rng *sim.RNG, s Scenario) *fault.Plan {
	p := &fault.Plan{Name: fmt.Sprintf("fuzz-%d", s.Seed)}
	span := s.Horizon - 30*time.Second
	if span <= 0 {
		span = s.Horizon / 2
	}
	at := func() time.Duration {
		return 10*time.Second + time.Duration(rng.Intn(int(span/time.Second)))*time.Second
	}
	dur := func() time.Duration {
		return time.Duration(15+rng.Intn(45)) * time.Second
	}
	area := func() geo.Circle {
		return geo.Circle{
			Center: geo.Point{X: rng.Uniform(0, s.Size), Y: rng.Uniform(0, s.Size)},
			Radius: rng.Uniform(s.Size/8, s.Size/2),
		}
	}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			p.Add(fault.Fault{Kind: fault.JamWave, At: at(), Duration: dur(),
				Area: area(), Intensity: rng.Uniform(0.3, 1)})
		case 1:
			p.Add(fault.Fault{Kind: fault.Smoke, At: at(), Duration: dur(), Area: area()})
		case 2:
			p.Add(fault.Fault{Kind: fault.KillWave, At: at(),
				Fraction: rng.Uniform(0.1, 0.4), Select: fault.SelectComposite})
		case 3:
			p.Add(fault.Fault{Kind: fault.Partition, At: at(), Duration: dur(),
				X: rng.Uniform(s.Size/4, 3*s.Size/4)})
		case 4:
			p.Add(fault.Fault{Kind: fault.Corrupt, At: at(), Duration: dur(),
				Prob: rng.Uniform(0.05, 0.3)})
		case 5:
			p.Add(fault.Fault{Kind: fault.Delay, At: at(), Duration: dur(),
				Prob: rng.Uniform(0.2, 0.8), Extra: time.Duration(rng.Intn(400)+100) * time.Millisecond})
		case 6:
			p.Add(fault.Fault{Kind: fault.ChurnSpike, At: at(), Duration: dur(),
				Rate: rng.Uniform(0.05, 0.25)})
		case 7:
			p.Add(fault.Fault{Kind: fault.CommandPostLoss, At: at()})
		}
	}
	if s.Checkpoint > 0 && rng.Bool(0.5) {
		crashAt := s.Horizon/2 + time.Duration(rng.Intn(20))*time.Second
		p.Add(fault.Fault{Kind: fault.CrashPost, At: crashAt})
		p.Add(fault.Fault{Kind: fault.Failover,
			At: crashAt + time.Duration(1+rng.Intn(5))*time.Second, Warm: rng.Bool(0.5)})
	}
	if len(p.Faults) == 0 {
		return nil
	}
	return p
}

// InvariantMaker builds an invariant against a live mission; the
// fuzzer's shrink test uses one to arm a deliberately flipped check.
type InvariantMaker func(*core.World, *core.Runtime) Invariant

// Outcome is the verification verdict of one scenario run.
type Outcome struct {
	Scenario Scenario
	// Skipped means the random world could not synthesize the mission
	// (legitimately too sparse); no verification verdict was produced.
	Skipped bool
	// Summary is the registry's audit record.
	Summary Summary
	// Violations are the recorded invariant failures (empty: run clean).
	Violations []Violation
	// Fingerprint digests the final mission metrics (differential
	// properties compare it across paired runs).
	Fingerprint uint64
}

// Run executes the scenario with the full mission invariant catalogue
// armed (plus any extra invariants) and returns the verdict. Runs are
// deterministic per scenario.
func Run(s Scenario, extra ...InvariantMaker) *Outcome {
	return runScenario(s, nil, nil, extra...)
}

// BuildMission builds the scenario's world and mission runtime with
// journal j attached (nil: none), synthesizes and starts the mission and
// schedules the fault plan, leaving the engine at time zero ready to
// run. It is the one recipe behind Run and the mission service, which is
// what lets a service recovery replay a verified mission event for
// event. On success the caller stops the runtime, then the world; an
// error means the random world could not synthesize the mission.
func BuildMission(s Scenario, j *checkpoint.Journal) (*core.World, *core.Runtime, error) {
	var terr *geo.Terrain
	switch s.Terrain {
	case "urban":
		terr = geo.NewUrbanTerrain(s.Size, s.Size, 100)
	case "sparse":
		terr = geo.NewSparseTerrain(s.Size, s.Size)
	default:
		terr = geo.NewOpenTerrain(s.Size, s.Size)
	}
	w := core.NewWorld(core.WorldConfig{Seed: s.Seed, Terrain: terr, Assets: s.Assets})

	pad := s.Size / 5
	m := core.DefaultMission(geo.NewRect(
		geo.Point{X: pad, Y: pad}, geo.Point{X: s.Size - pad, Y: s.Size - pad}))
	m.Goal.CoverageFrac = 0.4
	m.IncidentsPerMin = s.Rate
	m.Command = core.CommandIntent
	if s.Command == "hierarchy" {
		m.Command = core.CommandHierarchy
	}
	m.ReliableOrders = s.Reliable
	m.Degradation = s.Degrade
	m.CheckpointEvery = s.Checkpoint
	m.TrustAudit = true

	r := core.NewRuntime(w, m)
	r.SetJournal(j)

	if s.Track {
		tracker := track.NewTracker(track.Config{})
		r.AttachTracker(tracker)
		// A deterministic three-target picture fused at the post, so the
		// track invariants have live hypotheses to check and track state
		// is part of what checkpoints must carry.
		w.Eng.Every(time.Second, "verify.targets", func() {
			ts := w.Eng.Now().Seconds()
			tracker.Observe(w.Eng.Now(), []track.Detection{
				{Pos: geo.Point{X: s.Size/6 + 3*ts, Y: s.Size / 4}, Var: 9, Sensor: 1},
				{Pos: geo.Point{X: 3*s.Size/4 - 2*ts, Y: s.Size / 2}, Var: 9, Sensor: 2},
				{Pos: geo.Point{X: s.Size / 2, Y: s.Size/6 + 2.5*ts}, Var: 9, Sensor: 3},
			})
		})
	}

	err := r.Synthesize()
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		w.Stop()
		return nil, nil, err
	}

	if s.Plan != nil && len(s.Plan.Faults) > 0 {
		fault.Apply(w.FaultTarget(r), s.Plan)
	}
	return w, r, nil
}

// runScenario is the common engine behind Run, ReplayEquivalence, and
// RestoreTransparency: j, when non-nil, records the decision journal;
// prestart, when non-nil, runs after Start but before the horizon (for
// scheduling differential probes like a mid-run restore).
func runScenario(s Scenario, j *checkpoint.Journal, prestart func(*core.World, *core.Runtime), extra ...InvariantMaker) *Outcome {
	w, r, err := BuildMission(s, j)
	if err != nil {
		return &Outcome{Scenario: s, Skipped: true}
	}
	defer w.Stop()
	defer r.Stop()

	invs := MissionInvariants(w, r)
	for _, mk := range extra {
		invs = append(invs, mk(w, r))
	}
	reg := NewRegistry()
	reg.Add(invs...)

	if prestart != nil {
		prestart(w, r)
	}

	reg.Arm(w.Eng, time.Second)
	if err := w.Run(s.Horizon); err != nil {
		reg.record(w.Eng.Now(), "engine-run", err)
	}
	// One final sweep at the horizon so end-state violations are caught
	// even when the last ticker tick predates the final events.
	reg.CheckNow(w.Eng.Now())
	reg.Disarm()

	return &Outcome{
		Scenario:    s,
		Summary:     reg.Summarize(),
		Violations:  reg.Violations(),
		Fingerprint: r.Metrics.Fingerprint(),
	}
}

// SchemaVersion is the reproducer file format version. Bump it when
// String's output changes shape (new fields are fine — unknown keys
// already error — but renames, reordering, or fault-DSL changes must
// bump), so stale corpus files fail loudly instead of misparsing.
const SchemaVersion = 1

// String serializes the scenario as a replayable reproducer file: a
// header line, one key=value line, and the embedded fault plan DSL.
// ParseScenario is its exact inverse.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario v%d\n", SchemaVersion)
	fmt.Fprintf(&b,
		"seed=%d assets=%d size=%s terrain=%s command=%s reliable=%v degrade=%v checkpoint=%s rate=%s horizon=%s track=%v\n",
		s.Seed, s.Assets, ftoa(s.Size), s.Terrain, s.Command, s.Reliable, s.Degrade,
		s.Checkpoint, ftoa(s.Rate), s.Horizon, s.Track)
	if s.Plan != nil && len(s.Plan.Faults) > 0 {
		b.WriteString(s.Plan.String())
	}
	return b.String()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Bounds on the numeric fields a scenario file may state: a NaN or
// absurd incident rate arms a ticker at the engine's 1ns floor, and an
// infinite map has no terrain.
const (
	maxSize = 1e6 // meters
	maxRate = 6e3 // incidents per minute: one per 10ms of virtual time
)

// parseBounded parses a float that must be finite and in [0, max].
func parseBounded(v string, max float64) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && !(f >= 0 && f <= max) { // NaN fails every comparison
		err = fmt.Errorf("must be a finite number in [0, %g]", max)
	}
	return f, err
}

// ParseScenario reads a reproducer file produced by Scenario.String.
func ParseScenario(src string) (Scenario, error) {
	var s Scenario
	lines := strings.Split(strings.TrimSpace(src), "\n")
	if len(lines) < 2 {
		return s, fmt.Errorf("verify: not a scenario file (want \"scenario v%d\" header)", SchemaVersion)
	}
	header := strings.TrimSpace(lines[0])
	vs, ok := strings.CutPrefix(header, "scenario v")
	version, err := strconv.Atoi(vs)
	if !ok || err != nil {
		return s, fmt.Errorf("verify: not a scenario file (want \"scenario v%d\" header, got %q)", SchemaVersion, header)
	}
	if version != SchemaVersion {
		return s, fmt.Errorf("verify: scenario schema v%d not supported (this build reads v%d); re-shrink the reproducer", version, SchemaVersion)
	}
	for _, kv := range strings.Fields(lines[1]) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return s, fmt.Errorf("verify: malformed field %q", kv)
		}
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseInt(v, 10, 64)
		case "assets":
			s.Assets, err = strconv.Atoi(v)
		case "size":
			s.Size, err = parseBounded(v, maxSize)
		case "terrain":
			s.Terrain = v
		case "command":
			s.Command = v
		case "reliable":
			s.Reliable, err = strconv.ParseBool(v)
		case "degrade":
			s.Degrade, err = strconv.ParseBool(v)
		case "checkpoint":
			s.Checkpoint, err = time.ParseDuration(v)
		case "rate":
			s.Rate, err = parseBounded(v, maxRate)
		case "horizon":
			s.Horizon, err = time.ParseDuration(v)
		case "track":
			s.Track, err = strconv.ParseBool(v)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return s, fmt.Errorf("verify: field %q: %v", kv, err)
		}
	}
	if rest := strings.TrimSpace(strings.Join(lines[2:], "\n")); rest != "" {
		plan, err := fault.Parse(rest)
		if err != nil {
			return s, err
		}
		s.Plan = plan
	}
	return s, nil
}
