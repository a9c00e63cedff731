package discovery

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
	"iobt/internal/trust"
)

// clusterWorld places one blue scanner in the middle of a cluster of
// nodes, all within its radio range.
func clusterWorld(t *testing.T, seed int64, blue, gray, red int, duty float64) (*sim.Engine, *asset.Population, asset.ID) {
	t.Helper()
	eng := sim.NewEngine(seed)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	rng := eng.Stream("place")

	caps := asset.DefaultCaps(asset.ClassSensor)
	caps.RadioRange = 600
	scanner := &asset.Asset{Affiliation: asset.Blue, Class: asset.ClassSensor, Caps: caps,
		Online: true, DutyCycle: 1, Mobility: &geo.Static{P: geo.Point{X: 500, Y: 500}}}
	scanner.Energy = caps.EnergyCap
	scannerID := pop.Add(scanner)

	add := func(aff asset.Affiliation, class asset.Class, emission float64) {
		a := &asset.Asset{Affiliation: aff, Class: class, Caps: asset.DefaultCaps(class),
			Online: true, DutyCycle: duty, Emission: emission,
			Mobility: &geo.Static{P: geo.Point{X: rng.Uniform(300, 700), Y: rng.Uniform(300, 700)}}}
		a.Energy = a.Caps.EnergyCap
		pop.Add(a)
	}
	for i := 0; i < blue; i++ {
		add(asset.Blue, asset.ClassMote, 0.3)
	}
	for i := 0; i < gray; i++ {
		add(asset.Gray, asset.ClassPhone, 0.8)
	}
	for i := 0; i < red; i++ {
		add(asset.Red, asset.ClassPhone, 0.7)
	}
	return eng, pop, scannerID
}

func runScans(eng *sim.Engine, s *Service, rounds int) {
	for i := 0; i < rounds; i++ {
		eng.Schedule(time.Duration(i)*time.Second, "scan", s.Scan)
	}
	_ = eng.Run(0)
}

func TestDiscoverBlueNodes(t *testing.T) {
	eng, pop, scanner := clusterWorld(t, 1, 20, 0, 0, 1.0)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{scanner}
	s := New(eng, pop, nil, cfg)
	runScans(eng, s, 10)
	st := s.Evaluate()
	if st.Recall < 0.95 {
		t.Errorf("recall = %.2f, want ~1 for always-on blue nodes", st.Recall)
	}
	if st.ClassAccuracy < 0.9 {
		t.Errorf("class accuracy = %.2f, want high (authoritative responses)", st.ClassAccuracy)
	}
	for _, r := range s.dir {
		if r.EstAffiliation != asset.Blue {
			t.Errorf("node %d classified %v, want blue", r.ID, r.EstAffiliation)
		}
	}
}

func TestRedDetectionNeedsSideChannel(t *testing.T) {
	// Probe-only: red nodes stay silent, so they are mostly invisible.
	eng1, pop1, sc1 := clusterWorld(t, 2, 10, 0, 10, 1.0)
	cfg1 := DefaultConfig()
	cfg1.Scanners = []asset.ID{sc1}
	cfg1.Methods = MethodProbe
	probeOnly := New(eng1, pop1, nil, cfg1)
	runScans(eng1, probeOnly, 15)
	stProbe := probeOnly.Evaluate()

	// Full stack: passive + side channel expose them.
	eng2, pop2, sc2 := clusterWorld(t, 2, 10, 0, 10, 1.0)
	cfg2 := DefaultConfig()
	cfg2.Scanners = []asset.ID{sc2}
	full := New(eng2, pop2, nil, cfg2)
	runScans(eng2, full, 15)
	stFull := full.Evaluate()

	if stFull.RedRecall <= stProbe.RedRecall {
		t.Errorf("side-channel should raise red recall: probe=%.2f full=%.2f",
			stProbe.RedRecall, stFull.RedRecall)
	}
	if stFull.RedRecall < 0.5 {
		t.Errorf("full-stack red recall = %.2f, want >= 0.5", stFull.RedRecall)
	}
	if stFull.RedPrecision < 0.7 {
		t.Errorf("red precision = %.2f, want >= 0.7", stFull.RedPrecision)
	}
}

func TestLowDutyCycleHurtsProbeOnly(t *testing.T) {
	recallAt := func(duty float64, methods Methods) float64 {
		eng, pop, sc := clusterWorld(t, 3, 30, 0, 0, duty)
		cfg := DefaultConfig()
		cfg.Scanners = []asset.ID{sc}
		cfg.Methods = methods
		s := New(eng, pop, nil, cfg)
		runScans(eng, s, 10)
		return s.Evaluate().Recall
	}
	probeLow := recallAt(0.1, MethodProbe)
	fullLow := recallAt(0.1, MethodsAll)
	if fullLow <= probeLow {
		t.Errorf("passive+side-channel should beat probe-only at low duty: %.2f vs %.2f", fullLow, probeLow)
	}
}

func TestGrayClassification(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 4, 0, 20, 0, 1.0)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, nil, cfg)
	runScans(eng, s, 30)
	gray := 0
	for _, r := range s.dir {
		if r.EstAffiliation == asset.Gray {
			gray++
		}
	}
	if gray < 10 {
		t.Errorf("only %d/20 gray nodes classified gray", gray)
	}
}

func TestExpiry(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 5, 5, 0, 0, 1.0)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	cfg.ExpireAfter = 30 * time.Second
	s := New(eng, pop, nil, cfg)
	s.Scan()
	if len(s.dir) == 0 {
		t.Fatal("nothing discovered")
	}
	// Kill everything; entries must expire after the horizon.
	for _, a := range pop.All() {
		if a.ID != sc {
			pop.Kill(a.ID)
		}
	}
	eng.Schedule(time.Minute, "rescan", s.Scan)
	_ = eng.Run(0)
	if n := len(s.dir); n != 0 {
		t.Errorf("%d stale entries survived expiry", n)
	}
}

func TestContinuousDiscoveryService(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 6, 10, 0, 0, 1.0)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, nil, cfg)
	s.Start()
	s.Start() // idempotent
	_ = eng.Run(20 * time.Second)
	if s.Rounds.Value() == 0 {
		t.Fatal("service never scanned")
	}
	s.Stop()
	at := s.Rounds.Value()
	_ = eng.Run(20 * time.Second)
	if s.Rounds.Value() != at {
		t.Error("service scanned after Stop")
	}
}

func TestTrustFeedback(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 7, 5, 0, 10, 1.0)
	ledger := trust.NewLedger()
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, ledger, cfg)
	runScans(eng, s, 20)
	// Some red node should have been flagged, lowering its trust.
	flagged := 0
	for _, a := range pop.All() {
		if a.Affiliation == asset.Red && ledger.Score(a.ID) < 0.5 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no red node lost trust after discovery")
	}
}

func TestCompromisedNodesLie(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 8, 10, 0, 0, 1.0)
	// Compromise a blue mote; it keeps responding (possibly with a
	// forged class) and should remain classified blue — the stealthy case.
	victim := pop.Get(1)
	victim.Compromised = true
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, nil, cfg)
	runScans(eng, s, 10)
	rec := s.dir[victim.ID]
	if rec == nil {
		t.Fatal("compromised node not discovered")
	}
	if rec.EstAffiliation != asset.Blue {
		t.Errorf("stealthy compromised node classified %v; staying blue is the expected failure mode", rec.EstAffiliation)
	}
}

func TestDeadScannerSkipped(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 9, 5, 0, 0, 1.0)
	pop.Kill(sc)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, nil, cfg)
	s.Scan()
	_ = eng
	if len(s.dir) != 0 {
		t.Error("dead scanner discovered nodes")
	}
}

func TestGetMissing(t *testing.T) {
	eng, pop, sc := clusterWorld(t, 10, 1, 0, 0, 1.0)
	cfg := DefaultConfig()
	cfg.Scanners = []asset.ID{sc}
	s := New(eng, pop, nil, cfg)
	_ = eng
	if s.dir[asset.ID(12345)] != nil {
		t.Error("Get of unknown id should be nil")
	}
}
