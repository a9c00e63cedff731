package asset

import (
	"testing"
	"testing/quick"

	"iobt/internal/geo"
)

func TestAffiliationString(t *testing.T) {
	cases := map[Affiliation]string{Blue: "blue", Red: "red", Gray: "gray", Affiliation(0): "unknown"}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassMote, ClassWearable, ClassSensor, ClassPhone, ClassRobot, ClassUAV, ClassVehicle, ClassEdgeServer, ClassHuman} {
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
	if Class(0).String() != "unknown" {
		t.Error("zero class should be unknown")
	}
}

func TestModality(t *testing.T) {
	m := ModVisual | ModThermal
	if Modality(0).String() != "none" {
		t.Error("zero modality name")
	}
	if m.String() != "visual+thermal" {
		t.Errorf("String = %q", m.String())
	}
}

func TestDefaultCapsHeterogeneity(t *testing.T) {
	mote := DefaultCaps(ClassMote)
	edge := DefaultCaps(ClassEdgeServer)
	if edge.Compute/mote.Compute < 1000 {
		t.Errorf("compute spread too small: %v vs %v (paper requires orders of magnitude)", edge.Compute, mote.Compute)
	}
	uav := DefaultCaps(ClassUAV)
	if uav.Modalities&(ModRadar|ModLidar) != ModRadar|ModLidar {
		t.Error("UAV should carry radar+lidar (paper §III)")
	}
	if DefaultCaps(Class(99)) != (Capabilities{}) {
		t.Error("unknown class should have zero caps")
	}
}

func TestDrain(t *testing.T) {
	a := &Asset{Caps: DefaultCaps(ClassMote), Online: true}
	a.Energy = 10
	if !a.Drain(4) || a.Energy != 6 {
		t.Errorf("Drain: energy = %v", a.Energy)
	}
	if a.Drain(10) {
		t.Error("Drain past zero should report exhaustion")
	}
	if a.Energy != 0 || a.Online || a.Alive() {
		t.Error("dead asset state wrong")
	}
	// Draining zero or negative is a no-op on energy.
	b := &Asset{Energy: 5}
	if !b.Drain(0) || b.Energy != 5 {
		t.Error("Drain(0) should be a no-op")
	}
	if !b.Drain(-3) || b.Energy != 5 {
		t.Error("Drain(negative) should be a no-op")
	}
}

func TestPosNilMobility(t *testing.T) {
	a := &Asset{}
	if a.Pos() != (geo.Point{}) {
		t.Error("nil mobility should yield origin")
	}
}

func TestAssetString(t *testing.T) {
	a := &Asset{ID: 3, Affiliation: Blue, Class: ClassUAV, Mobility: &geo.Static{P: geo.Point{X: 1, Y: 2}}}
	if a.String() == "" {
		t.Error("empty String")
	}
}

// Property: Drain never leaves negative energy and Alive is consistent.
func TestDrainInvariant(t *testing.T) {
	prop := func(start uint16, drains []uint8) bool {
		a := &Asset{Energy: float64(start), Online: true}
		for _, d := range drains {
			a.Drain(float64(d))
			if a.Energy < 0 {
				return false
			}
			if (a.Energy > 0) != a.Alive() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
