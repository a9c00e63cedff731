package attack

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

func TestJammerWindow(t *testing.T) {
	j := Jammer{From: 10 * time.Second, Until: 20 * time.Second}
	if j.Active(5 * time.Second) {
		t.Error("active before From")
	}
	if !j.Active(15 * time.Second) {
		t.Error("inactive inside window")
	}
	if j.Active(25 * time.Second) {
		t.Error("active after Until")
	}
	forever := Jammer{From: 0, Until: 0}
	if !forever.Active(time.Hour) {
		t.Error("zero Until should mean forever")
	}
}

func TestFieldAt(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewField(eng)
	f.Add(Jammer{Area: geo.Circle{Center: geo.Point{X: 100, Y: 100}, Radius: 50}, Intensity: 0.6})
	f.Add(Jammer{Area: geo.Circle{Center: geo.Point{X: 100, Y: 100}, Radius: 30}, Intensity: 0.9})
	if got := f.At(geo.Point{X: 100, Y: 100}); got != 0.9 {
		t.Errorf("overlapping jammers: At = %v, want max 0.9", got)
	}
	if got := f.At(geo.Point{X: 140, Y: 100}); got != 0.6 {
		t.Errorf("outer ring: At = %v, want 0.6", got)
	}
	if got := f.At(geo.Point{X: 500, Y: 500}); got != 0 {
		t.Errorf("clear air: At = %v, want 0", got)
	}
}

func TestFieldClampsIntensity(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewField(eng)
	f.Add(Jammer{Area: geo.Circle{Center: geo.Point{}, Radius: 10}, Intensity: 5})
	if got := f.At(geo.Point{}); got != 1 {
		t.Errorf("intensity not clamped: %v", got)
	}
}

func TestFieldTimeWindowViaEngine(t *testing.T) {
	eng := sim.NewEngine(1)
	f := NewField(eng)
	f.Add(Jammer{Area: geo.Circle{Center: geo.Point{}, Radius: 10}, Intensity: 1,
		From: 10 * time.Second, Until: 20 * time.Second})
	if f.At(geo.Point{}) != 0 {
		t.Error("jammer active before window")
	}
	eng.Schedule(15*time.Second, "check", func() {
		if f.At(geo.Point{}) != 1 {
			t.Error("jammer inactive during window")
		}
	})
	eng.Schedule(25*time.Second, "check", func() {
		if f.At(geo.Point{}) != 0 {
			t.Error("jammer active after window")
		}
	})
	_ = eng.Run(0)
}

func TestCapture(t *testing.T) {
	eng := sim.NewEngine(2)
	terr := geo.NewOpenTerrain(100, 100)
	pop := asset.NewPopulation(terr)
	a := &asset.Asset{Class: asset.ClassSensor, Caps: asset.DefaultCaps(asset.ClassSensor), Online: true, Affiliation: asset.Blue}
	a.Energy = 100
	id := pop.Add(a)
	Capture(eng, pop, id, 10*time.Second)
	_ = eng.Run(5 * time.Second)
	if a.Compromised {
		t.Error("compromised before capture time")
	}
	_ = eng.Run(10 * time.Second)
	if !a.Compromised {
		t.Error("not compromised after capture time")
	}
	// Capturing a dead or missing node must not panic.
	Capture(eng, pop, asset.ID(999), time.Second)
	pop.Kill(id)
	Capture(eng, pop, id, time.Second)
	_ = eng.Run(time.Minute)
}

func TestObscurantWindowAndArea(t *testing.T) {
	eng := sim.NewEngine(7)
	f := NewObscurants(eng)
	f.Add(Obscurant{
		Area:   geo.Circle{Center: geo.Point{X: 100, Y: 100}, Radius: 50},
		Blocks: asset.ModVisual | asset.ModThermal,
		From:   10 * time.Second,
	})
	if f.BlockedAt(geo.Point{X: 100, Y: 100}) != 0 {
		t.Error("blocked before window")
	}
	eng.Schedule(15*time.Second, "check", func() {
		got := f.BlockedAt(geo.Point{X: 100, Y: 100})
		if got&(asset.ModVisual|asset.ModThermal) != asset.ModVisual|asset.ModThermal {
			t.Errorf("blocked = %v", got)
		}
		if f.BlockedAt(geo.Point{X: 500, Y: 500}) != 0 {
			t.Error("blocked outside area")
		}
	})
	_ = eng.Run(0)
}

func TestObscurantsNilSafe(t *testing.T) {
	var f *Obscurants
	if f.BlockedAt(geo.Point{}) != 0 {
		t.Error("nil obscurants should block nothing")
	}
}

func TestObscurantOverlappingUnion(t *testing.T) {
	eng := sim.NewEngine(8)
	f := NewObscurants(eng)
	f.Add(Obscurant{Area: geo.Circle{Center: geo.Point{}, Radius: 10}, Blocks: asset.ModVisual})
	f.Add(Obscurant{Area: geo.Circle{Center: geo.Point{}, Radius: 10}, Blocks: asset.ModThermal})
	if got := f.BlockedAt(geo.Point{}); got != asset.ModVisual|asset.ModThermal {
		t.Errorf("union = %v", got)
	}
}
