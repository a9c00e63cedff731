package verify

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/cop"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/intent"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/track"
)

// Scenario is one fully-specified mission: world, mission knobs, and
// fault plan, every random draw derived deterministically from Seed. A
// scenario serializes to a small text file (String/ParseScenario) so any
// violation the fuzzer finds, and any experiment row, is replayable
// byte-for-byte.
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
	// Levels, Coverage and Redundancy override the mission's hierarchy
	// depth, goal coverage fraction and k-coverage; zero keeps the
	// recipe's value (3, 0.4 and 1).
	Levels     int
	Coverage   float64
	Redundancy int
	// Churn arms asset churn: 2% of assets fail a minute, 3 arrive, and
	// half of the failed revive.
	Churn bool
	// Gossip replicates the common operational picture over an epidemic
	// overlay among the composite members and the command post.
	Gossip bool
	// Intent, when set, is the mission in the intent DSL
	// (internal/intent), starting at its `mission "name"` clause. It
	// replaces the recipe's mission, so Command, Rate, Levels, Coverage
	// and Redundancy stay zero.
	Intent string
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
	// Skipped means the mission could not be built, for the reason in
	// Err (a random world too sparse to synthesize it, say); no
	// verification verdict was produced.
	Skipped bool
	Err     error
	// Summary is the registry's audit record.
	Summary Summary
	// Violations are the recorded invariant failures (empty: run clean).
	Violations []Violation
	// Fingerprint digests the final mission metrics (differential
	// properties compare it across paired runs).
	Fingerprint uint64
	// Report is fault.Run's recovery record of the plan (nil when the
	// plan has no faults).
	Report *fault.Report
	// Metrics are the final mission metrics, Checkpoints the number of
	// checkpoints taken and Events the number of engine events executed.
	Metrics     *core.Metrics
	Checkpoints uint64
	Events      uint64
}

// Run executes the scenario with the full mission invariant catalogue
// armed (plus any extra invariants) and returns the verdict. Runs are
// deterministic per scenario.
func Run(s Scenario, extra ...InvariantMaker) *Outcome {
	o, err := RunAttempt(context.Background(), s, nil, nil, extra...)
	if err != nil {
		return &Outcome{Scenario: s, Skipped: true, Err: err}
	}
	return o
}

// BuildMission builds the scenario's world and mission runtime with
// journal j attached (nil: none), synthesizes and starts the mission
// and returns its invariant catalogue, leaving the engine at time zero
// ready to run. It is the one recipe behind Run, the experiments,
// iobtsim and the mission service, which is what lets a service
// recovery replay a verified mission event for event. The caller
// applies s.Plan (RunAttempt through fault.Run), stops the runtime,
// then the world; an error means the mission could not be built.
func BuildMission(s Scenario, j *checkpoint.Journal) (*core.World, *core.Runtime, []Invariant, error) {
	m, err := mission(s)
	if err != nil {
		return nil, nil, nil, err
	}
	var terr *geo.Terrain
	switch s.Terrain {
	case "urban":
		terr = geo.NewUrbanTerrain(s.Size, s.Size, 100)
	case "sparse":
		terr = geo.NewSparseTerrain(s.Size, s.Size)
	default:
		terr = geo.NewOpenTerrain(s.Size, s.Size)
	}
	cfg := core.WorldConfig{Seed: s.Seed, Terrain: terr, Assets: s.Assets}
	if s.Churn {
		cfg.Churn = &asset.ChurnConfig{FailRatePerMin: 0.02, ArriveRatePerMin: 3}
	}
	w := core.NewWorld(cfg)

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

	err = r.Synthesize()
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		w.Stop()
		return nil, nil, nil, err
	}
	invs := MissionInvariants(w, r)
	if s.Gossip {
		invs = append(invs, gossipOverlay(w, r)...)
	}
	return w, r, invs, nil
}

// mission is the scenario's mission: its intent section, or else the
// recipe (goal area inset by size/5, coverage 0.4, depth 3, k=1) with
// the key line's overrides; then the knobs both share.
func mission(s Scenario) (m core.Mission, err error) {
	if s.Intent != "" {
		m, err = intent.Parse(s.Intent)
	} else {
		pad := s.Size / 5
		m = core.DefaultMission(geo.NewRect(
			geo.Point{X: pad, Y: pad}, geo.Point{X: s.Size - pad, Y: s.Size - pad}))
		m.Goal.CoverageFrac = 0.4
		if s.Coverage > 0 {
			m.Goal.CoverageFrac = s.Coverage
		}
		m.Goal.Redundancy = s.Redundancy
		if s.Levels > 0 {
			m.HierarchyLevels = s.Levels
		}
		m.IncidentsPerMin = s.Rate
		m.Command = core.CommandIntent
		if s.Command == "hierarchy" {
			m.Command = core.CommandHierarchy
		}
	}
	m.ReliableOrders = s.Reliable
	m.Degradation = s.Degrade
	m.CheckpointEvery = s.Checkpoint
	m.TrustAudit = true
	return m, err
}

// gossipOverlay enrolls every composite member and the command post in
// an epidemic overlay, each with a CRDT picture replica: every 10s the
// post folds its world view into its replica and publishes the
// encoding, and every member merges what arrives. It returns the
// overlay's conservation and picture-monotonicity invariants.
func gossipOverlay(w *core.World, r *core.Runtime) []Invariant {
	post := r.Sink()
	members := slices.Clone(r.Composite().Members)
	if post != asset.None && !slices.Contains(members, post) {
		members = append(members, post)
	}
	slices.Sort(members)
	g := mesh.NewGossip(w.Net, mesh.GossipConfig{})
	pics := make([]*cop.Picture, len(members))
	var postPic *cop.Picture
	for i, id := range members {
		pic := cop.NewPicture(id)
		pics[i] = pic
		if id == post {
			postPic = pic
		}
		prev := w.Net.Handler(id)
		g.Join(id, func(msg mesh.Message) {
			if msg.Kind == "cop" {
				if enc, ok := msg.Payload.([]byte); ok {
					_ = pic.MergeEncoded(enc) // a corrupted frame is rejected whole and cannot regress the replica
				}
				return
			}
			if prev != nil {
				prev(msg)
			}
		})
	}
	g.Start()
	w.Eng.Every(10*time.Second, "verify.cop", func() {
		if postPic == nil {
			return
		}
		core.UpdatePicture(postPic, w, r)
		enc := postPic.Encode()
		_, _ = g.Publish(post, "cop", float64(len(enc)), enc) // the post joined above, so it is a member and Publish cannot fail
	})
	return []Invariant{
		GossipConservation(g),
		PictureMonotone("gossip", func() []*cop.Picture { return pics }),
	}
}

// RunAttempt is the one run protocol, behind Run, the mission service,
// ReplayEquivalence, RestoreTransparency, iobtsim and the experiments:
// BuildMission with journal j attached (nil: none), its invariant
// catalogue (plus any extra invariants) armed at 1s, the plan through
// fault.Run's read-only harness to the horizon under ctx, and a final
// sweep. prestart, when non-nil, runs after the mission is built and
// started and before the plan and the sweep are armed, for a caller's
// own events (the service's heartbeat and checkpoint hook, a mid-run
// restore probe). It returns the build error, prestart's error or ctx's
// cancellation cause.
func RunAttempt(ctx context.Context, s Scenario, j *checkpoint.Journal, prestart func(*core.World, *core.Runtime) error, extra ...InvariantMaker) (*Outcome, error) {
	w, r, invs, err := BuildMission(s, j)
	if err != nil {
		return nil, err
	}
	defer w.Stop()
	defer r.Stop()

	reg := NewRegistry()
	reg.Add(invs...)
	for _, mk := range extra {
		reg.Add(mk(w, r))
	}

	if prestart != nil {
		if err := prestart(w, r); err != nil {
			return nil, err
		}
	}

	reg.Arm(w.Eng, time.Second)
	defer reg.Disarm()
	// A plan with no faults has no rows to measure: no harness, and no
	// fault target built for it.
	var rep *fault.Report
	if s.Plan != nil && len(s.Plan.Faults) > 0 {
		rep, err = fault.Run(ctx, w.FaultTarget(r), s.Plan, s.Horizon)
	} else {
		err = w.Eng.RunContext(ctx, s.Horizon)
	}
	if err != nil {
		return nil, err
	}
	// One final sweep at the horizon so end-state violations are caught
	// even when the last ticker tick predates the final events.
	reg.CheckNow(w.Eng.Now())

	// A copy, so an outcome does not keep the whole world alive.
	met := r.Metrics
	o := &Outcome{
		Scenario:    s,
		Summary:     reg.Summarize(),
		Violations:  reg.Violations(),
		Fingerprint: met.Fingerprint(),
		Report:      rep,
		Metrics:     &met,
		Events:      w.Eng.Processed(),
	}
	if c := r.Checkpoints(); c != nil {
		o.Checkpoints = c.Taken.Value()
	}
	return o, nil
}

// SchemaVersion is the reproducer file format version. Bump it when
// String's output changes shape (new fields are fine — unknown keys
// already error — but renames, reordering, or fault-DSL changes must
// bump), so stale corpus files fail loudly instead of misparsing.
const SchemaVersion = 1

// String serializes the scenario as a replayable reproducer file: a
// header line, one key=value line, the intent section when there is
// one, and the embedded fault plan DSL. ParseScenario is its exact
// inverse.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario v%d\n", SchemaVersion)
	// Keys past the first four are written only when set, so a
	// scenario without them keeps its canonical form. An intent section
	// states the mission, so the key line then omits command and rate.
	opt := func(set bool, format string, v any) {
		if set {
			fmt.Fprintf(&b, " "+format, v)
		}
	}
	fmt.Fprintf(&b, "seed=%d assets=%d size=%s terrain=%s", s.Seed, s.Assets, ftoa(s.Size), s.Terrain)
	opt(s.Intent == "", "command=%s", s.Command)
	fmt.Fprintf(&b, " reliable=%v degrade=%v checkpoint=%s", s.Reliable, s.Degrade, s.Checkpoint)
	opt(s.Intent == "", "rate=%s", ftoa(s.Rate))
	fmt.Fprintf(&b, " horizon=%s track=%v", s.Horizon, s.Track)
	opt(s.Levels != 0, "levels=%d", s.Levels)
	opt(s.Coverage != 0, "coverage=%s", ftoa(s.Coverage))
	opt(s.Redundancy != 0, "redundancy=%d", s.Redundancy)
	opt(s.Churn, "churn=%v", s.Churn)
	opt(s.Gossip, "gossip=%v", s.Gossip)
	b.WriteByte('\n')
	if s.Intent != "" {
		b.WriteString(s.Intent + "\n")
	}
	if s.Plan != nil && len(s.Plan.Faults) > 0 {
		b.WriteString(s.Plan.String())
	}
	return b.String()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Bounds on the numeric fields a scenario file may state: a NaN or
// absurd incident rate arms a ticker at the engine's 1ns floor, an
// infinite map has no terrain, and the whole world is allocated before
// any run budget applies. The checkpoint cadence is 0 or at least
// checkpoint.MinEvery. Terrain and command are one of the names
// BuildMission reads, or empty for its default.
const (
	maxSize   = 1e6 // meters
	maxRate   = 6e3 // incidents per minute: one per 10ms of virtual time
	maxAssets = 100_000
	// maxLevels echelons of 2s staffing use up the whole 30s incident
	// deadline.
	maxLevels = 15
	// maxRedundancy bounds k-coverage: a greedy solve makes about k times
	// the picks of a 1-coverage solve.
	maxRedundancy = 16
)

// parseInt parses an int that must be in [0, max].
func parseInt(v string, max int) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && (n < 0 || n > max) {
		err = fmt.Errorf("must be in [0, %d]", max)
	}
	return n, err
}

// parseName accepts v when it is empty or one of names.
func parseName(v string, names ...string) (string, error) {
	if v == "" || slices.Contains(names, v) {
		return v, nil
	}
	return v, fmt.Errorf("must be one of %s", strings.Join(names, ", "))
}

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
			s.Assets, err = parseInt(v, maxAssets)
		case "size":
			s.Size, err = parseBounded(v, maxSize)
		case "terrain":
			s.Terrain, err = parseName(v, "open", "urban", "sparse")
		case "command":
			s.Command, err = parseName(v, "intent", "hierarchy")
		case "reliable":
			s.Reliable, err = strconv.ParseBool(v)
		case "degrade":
			s.Degrade, err = strconv.ParseBool(v)
		case "checkpoint":
			s.Checkpoint, err = time.ParseDuration(v)
			if err == nil && s.Checkpoint != 0 && s.Checkpoint < checkpoint.MinEvery {
				err = fmt.Errorf("must be 0 or at least %s", checkpoint.MinEvery)
			}
		case "rate":
			s.Rate, err = parseBounded(v, maxRate)
		case "horizon":
			s.Horizon, err = time.ParseDuration(v)
		case "track":
			s.Track, err = strconv.ParseBool(v)
		case "levels":
			s.Levels, err = parseInt(v, maxLevels)
		case "coverage":
			s.Coverage, err = parseBounded(v, 1)
		case "redundancy":
			s.Redundancy, err = parseInt(v, maxRedundancy)
		case "churn":
			s.Churn, err = strconv.ParseBool(v)
		case "gossip":
			s.Gossip, err = strconv.ParseBool(v)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return s, fmt.Errorf("verify: field %q: %v", kv, err)
		}
	}
	// An intent section runs from its mission line, the first clause
	// after the key line, to the plan line.
	rest := lines[2:]
	first := slices.IndexFunc(rest, func(l string) bool {
		l = strings.TrimSpace(l)
		return l != "" && l[0] != '#'
	})
	if first >= 0 && keyword(rest[first]) == "mission" {
		end := slices.IndexFunc(rest, func(l string) bool { return keyword(l) == "plan" })
		if end < 0 {
			end = len(rest)
		}
		if err := s.parseIntent(strings.Join(rest[first:end], "\n")); err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	if rest := strings.TrimSpace(strings.Join(rest, "\n")); rest != "" {
		plan, err := fault.Parse(rest)
		if err != nil {
			return s, err
		}
		s.Plan = plan
	}
	return s, nil
}

// keyword is a line's first word, lower-cased.
func keyword(line string) string {
	if f := strings.Fields(line); len(f) > 0 {
		return strings.ToLower(f[0])
	}
	return ""
}

// parseIntent reads an intent section. The mission it states is held
// to the key line's bounds, and the key line then states no mission of
// its own.
func (s *Scenario) parseIntent(text string) error {
	s.Intent = text
	if s.Command != "" || s.Rate != 0 || s.Levels != 0 || s.Coverage != 0 || s.Redundancy != 0 {
		return fmt.Errorf("verify: an intent section states the mission; the key line sets command, rate, levels, coverage or redundancy")
	}
	m, err := intent.Parse(s.Intent)
	switch {
	case err != nil:
		return fmt.Errorf("verify: intent section: %w", err)
	case m.HierarchyLevels < 0 || m.HierarchyLevels > maxLevels:
		return fmt.Errorf("verify: intent section: levels %d must be in [0, %d]", m.HierarchyLevels, maxLevels)
	case m.IncidentsPerMin > maxRate:
		return fmt.Errorf("verify: intent section: rate %g must be at most %g", m.IncidentsPerMin, float64(maxRate))
	case m.Goal.Redundancy > maxRedundancy:
		return fmt.Errorf("verify: intent section: redundancy %d must be at most %d", m.Goal.Redundancy, maxRedundancy)
	}
	return nil
}
