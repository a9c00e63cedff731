package fault

import (
	"strings"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

// testTarget assembles a target from raw substrates — no core import,
// mirroring how the package avoids the dependency cycle.
func testTarget(t *testing.T, seed int64) Target {
	t.Helper()
	eng := sim.NewEngine(seed)
	terr := geo.NewOpenTerrain(1000, 1000)
	mix := asset.DefaultMix(100)
	pop := asset.Generate(terr, mix, eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	jam := attack.NewField(eng)
	net.SetJamming(jam.At)
	return Target{Eng: eng, Pop: pop, Net: net, Jam: jam, Smoke: attack.NewObscurants(eng)}
}

func aliveBlue(pop *asset.Population) int {
	n := 0
	for _, a := range pop.All() {
		if a.Alive() && a.Affiliation == asset.Blue {
			n++
		}
	}
	return n
}

func TestParseRoundTrip(t *testing.T) {
	src := `
# the reference disruption, annotated
plan roundtrip
partition at=30s for=1m0s x=600
partition at=40s for=20s cx=500 cy=500 r=250
jam at=1m0s for=1m0s cx=600 cy=600 r=300 intensity=0.9
kill at=1m30s frac=0.33 of=composite
kill at=2m0s frac=0.5 cx=100 cy=100 r=50
cploss at=1m35s
corrupt at=2m0s for=30s prob=0.2
delay at=2m0s for=30s prob=0.5 add=500ms
churn at=3m0s for=1m0s rate=0.2
smoke at=3m0s for=40s cx=500 cy=500 r=200
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "roundtrip" {
		t.Errorf("name = %q", p.Name)
	}
	if len(p.Faults) != 10 {
		t.Fatalf("parsed %d faults, want 10", len(p.Faults))
	}
	if f := p.Faults[0]; f.Kind != Partition || f.At != 30*time.Second ||
		f.Duration != time.Minute || f.X != 600 {
		t.Errorf("partition parsed as %+v", f)
	}
	if f := p.Faults[3]; f.Kind != KillWave || f.Select != SelectComposite || f.Fraction != 0.33 {
		t.Errorf("kill parsed as %+v", f)
	}
	if f := p.Faults[7]; f.Kind != Delay || f.Extra != 500*time.Millisecond || f.Prob != 0.5 {
		t.Errorf("delay parsed as %+v", f)
	}

	// String must render a plan that parses back to the same faults.
	rendered := p.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered plan: %v\n%s", err, rendered)
	}
	if len(p2.Faults) != len(p.Faults) || p2.Name != p.Name {
		t.Fatalf("round trip lost faults: %d vs %d", len(p2.Faults), len(p.Faults))
	}
	for i := range p.Faults {
		if p.Faults[i] != p2.Faults[i] {
			t.Errorf("fault %d round-tripped %+v -> %+v", i, p.Faults[i], p2.Faults[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",                         // no faults
		"quake at=30s",             // unknown verb
		"jam at=30s intensity",     // malformed kv
		"jam at=thirty",            // bad duration
		"kill at=30s of=red",       // unknown selector
		"jam at=30s wavelength=12", // unknown key
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Errors carry line numbers.
	if _, err := Parse("jam at=10s\nbogus at=20s"); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line number: %v", err)
	}
}

// A partition needs a line (nonzero x=) or a circle (positive r=) to
// cut along; one with neither would install a link hook that never cuts.
func TestParsePartitionMustCut(t *testing.T) {
	for _, bad := range []string{
		"partition at=30s",
		"partition at=30s for=1m",
		"partition at=30s x=0",
		"partition at=30s cx=500 cy=500",
		"partition at=30s cx=500 cy=500 r=0",
		"partition at=30s cx=500 cy=500 r=-50",
		"jam at=10s\npartition at=30s for=1m",
	} {
		_, err := Parse(bad)
		if err == nil || !strings.Contains(err.Error(), "partition") || !strings.Contains(err.Error(), "cuts nothing") {
			t.Errorf("Parse(%q) = %v, want an error naming the partition that cuts nothing", bad, err)
		}
	}
	for _, good := range []string{
		"partition at=30s x=600",
		"partition at=30s x=-5",
		"partition at=30s for=1m cx=0 cy=0 r=250",
		"partition at=30s x=600 r=-1",
	} {
		if _, err := Parse(good); err != nil {
			t.Errorf("Parse(%q): %v", good, err)
		}
	}
}

func TestPlanScale(t *testing.T) {
	p := StandardPlan(1000)
	half := p.Scale(0.5)
	if len(half.Faults) != len(p.Faults) {
		t.Fatal("Scale changed fault count")
	}
	if half.Faults[1].Intensity != 0.45 {
		t.Errorf("jam intensity scaled to %v, want 0.45", half.Faults[1].Intensity)
	}
	if got, want := half.Faults[2].Fraction, 1.0/6; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("kill fraction scaled to %v, want %v", got, want)
	}
	// Scheduling is untouched; probabilities clamp at 1.
	if half.Faults[0].At != p.Faults[0].At {
		t.Error("Scale moved fault onset")
	}
	boosted := (&Plan{Faults: []Fault{{Kind: Corrupt, Prob: 0.8}}}).Scale(2)
	if boosted.Faults[0].Prob != 1 {
		t.Errorf("prob scaled to %v, want clamp at 1", boosted.Faults[0].Prob)
	}
}

func TestFaultWindows(t *testing.T) {
	w := Fault{Kind: JamWave, At: 10 * time.Second, Duration: 20 * time.Second}
	if w.activeAt(5 * time.Second) {
		t.Error("active before onset")
	}
	if !w.activeAt(15 * time.Second) {
		t.Error("inactive mid-window")
	}
	if w.activeAt(30 * time.Second) {
		t.Error("active past the window")
	}
	if w.End() != 30*time.Second {
		t.Errorf("End = %v", w.End())
	}
	// A windowed fault without duration lasts to the horizon: End is the
	// attack package's "never" sentinel, zero.
	open := Fault{Kind: JamWave, At: 10 * time.Second}
	if !open.activeAt(time.Hour) || open.End() != 0 {
		t.Errorf("open window: active=%v end=%v", open.activeAt(time.Hour), open.End())
	}
	instant := Fault{Kind: KillWave, At: 10 * time.Second}
	if instant.End() != 10*time.Second {
		t.Errorf("instant End = %v", instant.End())
	}
}

func TestKillWaveDeterministic(t *testing.T) {
	victims := func() (killed int, alive int) {
		tgt := testTarget(t, 99)
		defer tgt.Net.Stop()
		plan := (&Plan{Name: "kw"}).Add(Fault{Kind: KillWave, At: time.Second, Fraction: 0.25})
		inj := Apply(tgt, plan)
		if err := tgt.Eng.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return int(inj.Killed.Value()), aliveBlue(tgt.Pop)
	}
	k1, a1 := victims()
	k2, a2 := victims()
	if k1 != k2 || a1 != a2 {
		t.Errorf("same seed diverged: killed %d/%d alive %d/%d", k1, k2, a1, a2)
	}
	if k1 == 0 {
		t.Error("kill wave killed nothing")
	}
}

func TestKillWaveAreaScoped(t *testing.T) {
	tgt := testTarget(t, 100)
	defer tgt.Net.Stop()
	area := geo.Circle{Center: geo.Point{X: 250, Y: 250}, Radius: 200}
	inside := 0
	for _, a := range tgt.Pop.All() {
		if a.Alive() && a.Affiliation == asset.Blue && area.Contains(a.Pos()) {
			inside++
		}
	}
	if inside == 0 {
		t.Skip("no blue assets inside the area for this seed")
	}
	plan := (&Plan{Name: "area"}).Add(Fault{Kind: KillWave, At: time.Second, Fraction: 1, Area: area})
	inj := Apply(tgt, plan)
	if err := tgt.Eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if int(inj.Killed.Value()) != inside {
		t.Errorf("killed %d, want every one of the %d inside", inj.Killed.Value(), inside)
	}
	for _, a := range tgt.Pop.All() {
		if a.Affiliation == asset.Blue && !area.Contains(a.Pos()) && !a.Alive() {
			t.Fatal("kill wave leaked outside its area")
		}
	}
}

func TestCommandPostLossUsesHook(t *testing.T) {
	tgt := testTarget(t, 101)
	defer tgt.Net.Stop()
	var post asset.ID = asset.None
	for _, a := range tgt.Pop.All() {
		if a.Alive() && a.Affiliation == asset.Blue {
			post = a.ID
			break
		}
	}
	if post == asset.None {
		t.Fatal("no blue asset")
	}
	tgt.CommandPost = func() asset.ID { return post }
	plan := (&Plan{Name: "cp"}).Add(Fault{Kind: CommandPostLoss, At: time.Second})
	inj := Apply(tgt, plan)
	if err := tgt.Eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a := tgt.Pop.Get(post); a.Alive() {
		t.Error("designated command post survived cploss")
	}
	if inj.Killed.Value() != 1 {
		t.Errorf("Killed = %d, want 1", inj.Killed.Value())
	}
}

func TestChurnSpikeKillsDuringWindowOnly(t *testing.T) {
	tgt := testTarget(t, 102)
	defer tgt.Net.Stop()
	before := aliveBlue(tgt.Pop)
	plan := (&Plan{Name: "spike"}).Add(Fault{
		Kind: ChurnSpike, At: 10 * time.Second, Duration: 30 * time.Second, Rate: 2,
	})
	inj := Apply(tgt, plan)
	if err := tgt.Eng.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inj.Killed.Value() != 0 {
		t.Fatalf("churn spike fired before its onset")
	}
	if err := tgt.Eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	during := inj.Killed.Value()
	if during == 0 {
		t.Fatal("churn spike at 2/min killed nothing in 30s")
	}
	if err := tgt.Eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if inj.Killed.Value() != during {
		t.Error("churn spike kept killing after its window")
	}
	if got := aliveBlue(tgt.Pop); got != before-int(during) {
		t.Errorf("alive %d, want %d - %d", got, before, during)
	}
}

func TestPartitionSeversCrossLinks(t *testing.T) {
	eng := sim.NewEngine(5)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 200
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: 450 + 100*float64(i), Y: 500}}}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0 // the probes ask "is there a link", not "did this frame survive a 2.5 % hop"
	net := mesh.New(eng, pop, terr, cfg)
	tgt := Target{Eng: eng, Pop: pop, Net: net, Jam: attack.NewField(eng)}
	plan := (&Plan{Name: "cut"}).Add(Fault{
		Kind: Partition, At: 10 * time.Second, Duration: 20 * time.Second, X: 500,
	})
	Apply(tgt, plan)

	send := func() bool {
		ok := false
		net.RegisterHandler(1, func(mesh.Message) { ok = true })
		// Connectivity probe: a refused send during the partition window is the expected outcome the delivery flag asserts
		_ = net.Send(mesh.Message{From: 0, To: 1, Size: 10, Kind: "probe"})
		_ = eng.Run(2 * time.Second)
		return ok
	}
	if !send() {
		t.Fatal("no delivery before the partition")
	}
	_ = eng.Run(9 * time.Second) // into the window
	if send() {
		t.Error("delivery across an active partition")
	}
	_ = eng.Run(20 * time.Second) // past the window
	if !send() {
		t.Error("no delivery after the partition healed")
	}
}

func TestHealEndsUnboundedPartition(t *testing.T) {
	eng := sim.NewEngine(7)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 200
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: 450 + 100*float64(i), Y: 500}}}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0 // the probes ask "is there a link", not "did this frame survive a 2.5 % hop"
	net := mesh.New(eng, pop, terr, cfg)
	tgt := Target{Eng: eng, Pop: pop, Net: net, Jam: attack.NewField(eng)}
	// The partition has no for=: without the heal it would last to the
	// horizon. The heal at 40s must end it.
	plan := (&Plan{Name: "healcut"}).
		Add(Fault{Kind: Partition, At: 10 * time.Second, X: 500}).
		Add(Fault{Kind: Heal, At: 40 * time.Second})
	Apply(tgt, plan)

	send := func() bool {
		ok := false
		net.RegisterHandler(1, func(mesh.Message) { ok = true })
		// Connectivity probe: a refused send during the partition window is the expected outcome the delivery flag asserts
		_ = net.Send(mesh.Message{From: 0, To: 1, Size: 10, Kind: "probe"})
		_ = eng.Run(2 * time.Second)
		return ok
	}
	if !send() {
		t.Fatal("no delivery before the partition")
	}
	_ = eng.Run(9 * time.Second) // into the open-ended window
	if send() {
		t.Error("delivery across an active unbounded partition")
	}
	_ = eng.Run(30 * time.Second) // past the heal instant
	if !send() {
		t.Error("no delivery after heal ended the unbounded partition")
	}
}

func TestHealOnlyEndsEarlierPartitions(t *testing.T) {
	// A heal must not end partitions that begin after it.
	inj := &Injector{plan: (&Plan{Name: "order"}).
		Add(Fault{Kind: Partition, At: 10 * time.Second, X: 500}).
		Add(Fault{Kind: Heal, At: 20 * time.Second}).
		Add(Fault{Kind: Partition, At: 30 * time.Second, X: 500})}
	early := &inj.plan.Faults[0]
	late := &inj.plan.Faults[2]
	if inj.healed(early, 15*time.Second) {
		t.Error("partition healed before the heal instant")
	}
	if !inj.healed(early, 25*time.Second) {
		t.Error("earlier partition not healed after the heal instant")
	}
	if inj.healed(late, 40*time.Second) {
		t.Error("heal ended a partition that began after it")
	}
}

func TestJamRegionFootprint(t *testing.T) {
	tgt := testTarget(t, 103)
	defer tgt.Net.Stop()
	plan := (&Plan{Name: "regionjam"}).Add(Fault{
		Kind: JamWave, At: time.Second, Duration: time.Minute,
		Region:    geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 500, Y: 1000}),
		Intensity: 0.9,
	})
	Apply(tgt, plan)
	// Sample from inside a scheduled event: the engine clock advances
	// with events, and Field.At reads the clock for the window check.
	var inside, outside float64
	tgt.Eng.ScheduleAt(2*time.Second, "test.sample", func() {
		inside = tgt.Jam.At(geo.Point{X: 250, Y: 500})
		outside = tgt.Jam.At(geo.Point{X: 750, Y: 500})
	})
	if err := tgt.Eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inside != 0.9 {
		t.Errorf("intensity inside the region = %v, want 0.9", inside)
	}
	if outside != 0 {
		t.Errorf("intensity outside the region = %v, want 0", outside)
	}
}

func TestParseHealAndJamRegion(t *testing.T) {
	p, err := Parse(`
plan gossip
partition at=30s x=600
jam region at=1m0s for=2m0s x0=200 y0=100 x1=600 y1=700 intensity=0.8
heal at=2m0s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(p.Faults))
	}
	if f := p.Faults[0]; f.Kind != Partition || f.Duration != 0 || f.X != 600 {
		t.Errorf("unbounded partition parsed as %+v", f)
	}
	want := geo.Rect{Min: geo.Point{X: 200, Y: 100}, Max: geo.Point{X: 600, Y: 700}}
	if f := p.Faults[1]; f.Kind != JamWave || f.Region != want || f.Intensity != 0.8 ||
		f.Area.Radius != 0 {
		t.Errorf("jam region parsed as %+v", f)
	}
	if f := p.Faults[2]; f.Kind != Heal || f.At != 2*time.Minute {
		t.Errorf("heal parsed as %+v", f)
	}

	rendered := p.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered plan: %v\n%s", err, rendered)
	}
	for i := range p.Faults {
		if p.Faults[i] != p2.Faults[i] {
			t.Errorf("fault %d round-tripped %+v -> %+v", i, p.Faults[i], p2.Faults[i])
		}
	}
	if !strings.Contains(rendered, "jam region") {
		t.Errorf("rendered plan lost the region operand:\n%s", rendered)
	}
}

func TestCorruptAndDelayHopFaults(t *testing.T) {
	eng := sim.NewEngine(6)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 200
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: 450 + 100*float64(i), Y: 500}}}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	cfg.LossBase = 0 // the probes ask "is there a link", not "did this frame survive a 2.5 % hop"
	net := mesh.New(eng, pop, terr, cfg)
	tgt := Target{Eng: eng, Pop: pop, Net: net, Jam: attack.NewField(eng)}
	plan := (&Plan{Name: "mangle"}).
		Add(Fault{Kind: Corrupt, At: 0, Duration: time.Minute, Prob: 1}).
		Add(Fault{Kind: Delay, At: 0, Duration: time.Minute, Prob: 1, Extra: 2 * time.Second})
	Apply(tgt, plan)

	gotKind := ""
	var gotAt time.Duration
	net.RegisterHandler(1, func(m mesh.Message) { gotKind, gotAt = m.Kind, eng.Now() })
	start := eng.Now()
	if err := net.Send(mesh.Message{From: 0, To: 1, Size: 10, Kind: "order", Payload: "x"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	_ = eng.Run(10 * time.Second)
	if gotKind != "corrupt" {
		t.Errorf("delivered kind %q, want corrupt", gotKind)
	}
	if net.Corrupted.Value() != 1 {
		t.Errorf("Corrupted = %d", net.Corrupted.Value())
	}
	if gotAt-start < 2*time.Second {
		t.Errorf("delivered after %v, want >= 2s injected delay", gotAt-start)
	}
}
