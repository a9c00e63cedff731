package asset

import (
	"testing"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

func testPop(t *testing.T, n int, seed int64) *Population {
	t.Helper()
	terr := geo.NewUrbanTerrain(2000, 2000)
	return Generate(terr, DefaultMix(n), sim.NewRNG(seed))
}

func TestGenerateCounts(t *testing.T) {
	p := testPop(t, 1000, 1)
	if p.Len() < 900 || p.Len() > 1100 {
		t.Fatalf("Len = %d, want ~1000", p.Len())
	}
	byAff := map[Affiliation]int{}
	for _, a := range p.assets {
		byAff[a.Affiliation]++
	}
	total := byAff[Blue] + byAff[Red] + byAff[Gray]
	if total != p.Len() {
		t.Errorf("affiliation counts %v don't sum to %d", byAff, p.Len())
	}
	redFrac := float64(byAff[Red]) / float64(total)
	grayFrac := float64(byAff[Gray]) / float64(total)
	if redFrac < 0.05 || redFrac > 0.15 {
		t.Errorf("red fraction = %.3f, want ~0.10", redFrac)
	}
	if grayFrac < 0.2 || grayFrac > 0.3 {
		t.Errorf("gray fraction = %.3f, want ~0.25", grayFrac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testPop(t, 300, 7)
	b := testPop(t, 300, 7)
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	for i := range a.All() {
		x, y := a.All()[i], b.All()[i]
		if x.Class != y.Class || x.Affiliation != y.Affiliation || x.Pos() != y.Pos() {
			t.Fatalf("asset %d differs between same-seed runs", i)
		}
	}
}

func TestGenerateAssetsInBounds(t *testing.T) {
	p := testPop(t, 500, 2)
	for _, a := range p.All() {
		pos := a.Pos()
		if pos.X < 0 || pos.X > 2000 || pos.Y < 0 || pos.Y > 2000 {
			t.Fatalf("asset %d out of bounds at %v", a.ID, pos)
		}
		if a.Energy <= 0 {
			t.Fatalf("asset %d generated dead", a.ID)
		}
	}
}

func TestGrayBiasTowardCommodity(t *testing.T) {
	p := testPop(t, 2000, 3)
	grayCommodity, grayOther := 0, 0
	for _, a := range p.All() {
		if a.Affiliation != Gray {
			continue
		}
		switch a.Class {
		case ClassPhone, ClassHuman, ClassWearable:
			grayCommodity++
		default:
			grayOther++
		}
	}
	if grayCommodity <= grayOther {
		t.Errorf("gray assignment not biased to commodity devices: %d vs %d", grayCommodity, grayOther)
	}
}

func TestKillReviveAndNear(t *testing.T) {
	p := testPop(t, 200, 4)
	target := p.All()[0]
	ids := p.Near(nil, target.Pos(), 1)
	found := false
	for _, id := range ids {
		if id == target.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("asset not found near its own position")
	}
	p.Kill(target.ID)
	if target.Alive() {
		t.Error("killed asset alive")
	}
	for _, id := range p.Near(nil, target.Pos(), 1) {
		if id == target.ID {
			t.Error("dead asset returned by Near")
		}
	}
	p.Revive(target.ID)
	if !target.Alive() || target.Energy != target.Caps.EnergyCap {
		t.Error("revive did not restore energy")
	}
}

func TestGetBounds(t *testing.T) {
	p := testPop(t, 50, 5)
	if p.Get(-1) != nil || p.Get(ID(p.Len())) != nil {
		t.Error("out-of-range Get should return nil")
	}
	if p.Get(0) == nil {
		t.Error("valid Get returned nil")
	}
}

func TestAddAssignsID(t *testing.T) {
	p := testPop(t, 50, 6)
	n := p.Len()
	id := p.Add(&Asset{Class: ClassMote, Caps: DefaultCaps(ClassMote), Energy: 100})
	if int(id) != n {
		t.Errorf("Add id = %d, want %d", id, n)
	}
	if p.Get(id).Mobility == nil {
		t.Error("Add should default mobility")
	}
}

func TestStepMobilityUpdatesIndex(t *testing.T) {
	terr := geo.NewOpenTerrain(1000, 1000)
	p := &Population{grid: geo.NewGrid(terr.Bounds, 0), terr: terr}
	a := &Asset{Class: ClassUAV, Caps: DefaultCaps(ClassUAV), Energy: 1e5,
		Mobility: geo.NewPatrol([]geo.Point{{X: 0, Y: 500}, {X: 1000, Y: 500}}, 100), Online: true}
	p.Add(a)
	p.StepMobility(5 * time.Second) // moves 500m
	ids := p.Near(nil, geo.Point{X: 500, Y: 500}, 10)
	if len(ids) != 1 {
		t.Errorf("index not updated after mobility step: %v", ids)
	}
}

func TestChurnFailuresAndArrivals(t *testing.T) {
	eng := sim.NewEngine(9)
	terr := geo.NewOpenTerrain(1000, 1000)
	p := Generate(terr, DefaultMix(500), eng.Stream("gen"))
	before := aliveCount(p)
	ch := NewChurn(eng, p, ChurnConfig{FailRatePerMin: 0.05, ArriveRatePerMin: 5})
	var failEvents, arriveEvents int
	ch.OnFail = func(ID) { failEvents++ }
	ch.OnArrive = func(ID) { arriveEvents++ }
	ch.Start()
	if err := eng.Run(10 * time.Minute); err != nil {
		t.Fatalf("run: %v", err)
	}
	ch.Stop()
	if ch.Failed() == 0 {
		t.Error("no failures in 10 min at 5%/min")
	}
	if ch.Arrived() == 0 {
		t.Error("no arrivals in 10 min at 5/min")
	}
	if failEvents != int(ch.Failed()) || arriveEvents != int(ch.Arrived()) {
		t.Error("callback counts disagree with counters")
	}
	after := aliveCount(p)
	if after == before && ch.Failed() > 0 {
		t.Error("population unchanged despite churn")
	}
}

func TestChurnStopHalts(t *testing.T) {
	eng := sim.NewEngine(10)
	terr := geo.NewOpenTerrain(1000, 1000)
	p := Generate(terr, DefaultMix(100), eng.Stream("gen"))
	ch := NewChurn(eng, p, ChurnConfig{FailRatePerMin: 0.1, ArriveRatePerMin: 1})
	ch.Start()
	ch.Start() // double start is a no-op
	_ = eng.Run(time.Minute)
	ch.Stop()
	failedAt := ch.Failed()
	_ = eng.Run(10 * time.Minute)
	if ch.Failed() != failedAt {
		t.Error("churn continued after Stop")
	}
}

func aliveCount(p *Population) int {
	n := 0
	for _, a := range p.All() {
		if a.Alive() {
			n++
		}
	}
	return n
}
