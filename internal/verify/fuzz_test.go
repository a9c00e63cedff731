package verify

import (
	"fmt"
	"testing"
	"time"

	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

// TestScenarioFuzz is the quick fuzz pass wired into the ordinary test
// run: it derives random missions from sequential seeds and runs each
// with the full invariant catalogue armed. Any violation is shrunk to a
// minimal reproducer and reported as a replayable scenario file.
func TestScenarioFuzz(t *testing.T) {
	n := 60
	if !testing.Short() {
		n = 120
	}
	ran, skipped := 0, 0
	for seed := int64(1); ran < n; seed++ {
		s := Generate(seed)
		out := Run(s)
		if out.Skipped {
			skipped++
			if skipped > n {
				t.Fatalf("too many unsynthesizable scenarios (%d skipped)", skipped)
			}
			continue
		}
		ran++
		if len(out.Violations) > 0 {
			reportViolation(t, s, out)
		}
	}
	t.Logf("fuzzed %d scenarios (%d skipped as unsynthesizable)", ran, skipped)
}

// FuzzScenario is the native fuzz target: the nightly CI job mutates
// seeds far beyond the sequential range the quick pass covers. The
// second argument fuzzes the shard count of the differential check —
// every generated dissemination scenario must produce an identical
// result at 1 shard and at the fuzzed count.
func FuzzScenario(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		f.Add(seed, uint8(4))
	}
	f.Fuzz(func(t *testing.T, seed int64, shards uint8) {
		s := Generate(seed)
		out := Run(s)
		if !out.Skipped && len(out.Violations) > 0 {
			reportViolation(t, s, out)
		}
		fuzzShardDifferential(t, seed, 1+int(shards%8))
	})
}

// fuzzShardDifferential derives a dissemination scenario from the seed
// and asserts shard-count invariance: byte-identical digest, counters,
// and zero conservation violations at 1 and at shards partitions.
func fuzzShardDifferential(t *testing.T, seed int64, shards int) {
	t.Helper()
	r := sim.NewRNG(seed).Derive("fuzz/shardnet")
	sc := mesh.ShardScenario{
		Nodes:        40 + r.Intn(80),
		Publishers:   1 + r.Intn(3),
		Horizon:      time.Duration(50+r.Intn(40)) * time.Second,
		PublishUntil: 40 * time.Second,
	}
	if r.Bool(0.5) {
		sc.Mode = mesh.ShardModeBFS
	}
	if r.Bool(0.4) {
		sc.KillAt = time.Duration(10+r.Intn(20)) * time.Second
		sc.KillFrac = r.Uniform(0.05, 0.4)
	}
	if r.Bool(0.4) {
		sc.PartitionAt = time.Duration(10+r.Intn(15)) * time.Second
		sc.HealAt = sc.PartitionAt + time.Duration(10+r.Intn(20))*time.Second
	}
	if r.Bool(0.4) && sc.Mode != mesh.ShardModeBFS {
		sc.AntiEntropyEvery = time.Duration(5+r.Intn(10)) * time.Second
	}
	ref, err := mesh.RunShardScenario(seed, 1, sc)
	if err != nil {
		t.Fatalf("1-shard run: %v", err)
	}
	got, err := mesh.RunShardScenario(seed, shards, sc)
	if err != nil {
		t.Fatalf("%d-shard run: %v", shards, err)
	}
	for _, v := range append(ref.Violations, got.Violations...) {
		t.Errorf("conservation violation: %s", v)
	}
	if ref.Digest != got.Digest || ref.Delivered != got.Delivered || ref.Events != got.Events {
		t.Errorf("shard differential diverged (seed %d, %d shards):\n  1-shard: digest=%016x delivered=%d events=%d\n  %d-shard: digest=%016x delivered=%d events=%d",
			seed, shards, ref.Digest, ref.Delivered, ref.Events,
			shards, got.Digest, got.Delivered, got.Events)
	}
}

// reportViolation shrinks a failing scenario and fails the test with
// the minimal replayable reproducer.
func reportViolation(t *testing.T, s Scenario, out *Outcome) {
	t.Helper()
	name := out.Violations[0].Name
	min := Shrink(s, func(c Scenario) bool {
		o := Run(c)
		if o.Skipped {
			return false
		}
		for _, v := range o.Violations {
			if v.Name == name {
				return true
			}
		}
		return false
	}, 60)
	t.Fatalf("invariant violated: %v\nsummary: %s\nminimal reproducer (cost %d, was %d):\n%s",
		out.Violations[0], out.Summary, min.Cost(), s.Cost(), min.String())
}

// TestShrinkFindsMinimalReproducer arms a deliberately broken invariant
// (it fails whenever the success rate is within its legal range, i.e.
// always) against a deliberately big scenario, once plain and once with
// churn and gossip on, and checks the shrinker reduces the reproducer
// to at most 25% of the original cost with every optional part
// stripped.
func TestShrinkFindsMinimalReproducer(t *testing.T) {
	flipped := func(w *core.World, r *core.Runtime) Invariant {
		return Invariant{Name: "flipped-success-bound", Check: func() error {
			if s := r.Metrics.SuccessRate(); s >= 0 && s <= 1 {
				return fmt.Errorf("deliberately flipped check: success rate %v is in [0,1]", s)
			}
			return nil
		}}
	}

	plan := &fault.Plan{Name: "shrink-big"}
	plan.Add(fault.Fault{Kind: fault.JamWave, At: 20 * time.Second, Duration: 30 * time.Second,
		Area: geo.Circle{Center: geo.Point{X: 700, Y: 700}, Radius: 400}, Intensity: 0.8})
	plan.Add(fault.Fault{Kind: fault.Smoke, At: 40 * time.Second, Duration: 30 * time.Second,
		Area: geo.Circle{Center: geo.Point{X: 400, Y: 400}, Radius: 300}})
	plan.Add(fault.Fault{Kind: fault.KillWave, At: 60 * time.Second, Fraction: 0.2,
		Select: fault.SelectComposite})
	plan.Add(fault.Fault{Kind: fault.Corrupt, At: 80 * time.Second, Duration: 30 * time.Second, Prob: 0.2})
	plan.Add(fault.Fault{Kind: fault.ChurnSpike, At: 100 * time.Second, Duration: 30 * time.Second, Rate: 0.1})
	plain := Scenario{
		Seed: 99, Assets: 250, Size: 1400, Terrain: "urban",
		Command: "hierarchy", Reliable: true, Degrade: true, Track: true,
		Checkpoint: 15 * time.Second, Rate: 20, Horizon: 180 * time.Second,
		Plan: plan,
	}
	gossiping := plain
	gossiping.Churn, gossiping.Gossip = true, true

	fails := func(c Scenario) bool {
		o := Run(c, flipped)
		if o.Skipped {
			return false
		}
		for _, v := range o.Violations {
			if v.Name == "flipped-success-bound" {
				return true
			}
		}
		return false
	}
	for _, big := range []Scenario{plain, gossiping} {
		if !fails(big) {
			t.Fatalf("flipped invariant was not caught:\n%s", big)
		}
		min := Shrink(big, fails, 60)

		if got, orig := min.Cost(), big.Cost(); got*4 > orig {
			t.Fatalf("shrunk reproducer cost %d > 25%% of original %d", got, orig)
		}
		if min.Reliable || min.Degrade || min.Track || min.Checkpoint > 0 || min.Churn || min.Gossip {
			t.Fatalf("shrunk reproducer keeps optional machinery:\n%s", min)
		}
		if !fails(min) {
			t.Fatal("shrunk scenario no longer reproduces the violation")
		}
		// The reproducer must round-trip through its file form.
		parsed, err := ParseScenario(min.String())
		if err != nil {
			t.Fatalf("reproducer does not parse: %v", err)
		}
		if parsed.String() != min.String() {
			t.Fatalf("reproducer round-trip mismatch:\n%s\nvs\n%s", min.String(), parsed.String())
		}
		t.Logf("shrunk cost %d -> %d:\n%s", big.Cost(), min.Cost(), min.String())
	}
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
