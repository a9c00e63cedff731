package core

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
)

// TestLiveMembersSorted locks in an iobtlint map-order fix: the
// candidate list liveMembers materializes from the members map feeds
// the composition solvers, whose tie-breaking follows slice order, so
// it must come out in ascending ID order regardless of map iteration
// order.
func TestLiveMembersSorted(t *testing.T) {
	w := testWorld(t, 11)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer r.Stop()
	if err := w.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		ms := r.liveMembers()
		if len(ms) == 0 {
			t.Fatal("no live members")
		}
		for i := 1; i < len(ms); i++ {
			if ms[i-1].ID >= ms[i].ID {
				t.Fatalf("liveMembers not in ascending ID order: %v >= %v at %d",
					ms[i-1].ID, ms[i].ID, i)
			}
		}
	}
}

// TestSortedMemberIDs pins the helper every scheduling-reachable
// member loop now goes through: ascending ID order, every call.
func TestSortedMemberIDs(t *testing.T) {
	w := testWorld(t, 12)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	if err := r.Synthesize(); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		ids := r.sortedMemberIDs()
		if len(ids) == 0 {
			t.Fatal("no members")
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("sortedMemberIDs out of order at %d: %v", i, ids)
			}
		}
	}
}

// TestNearestDetectorTieBreak locks in the iobtlint dettaint fix: two
// members exactly equidistant from the sensed position must resolve to
// the lower ID every time, not to whichever the members map yielded
// first that run — the strict `d < bestD` comparison made the old
// map-range loop first-wins.
func TestNearestDetectorTieBreak(t *testing.T) {
	w := testWorld(t, 13)
	defer w.Stop()
	r := NewRuntime(w, testMission(CommandIntent))
	mk := func(x, y float64) asset.ID {
		caps := asset.DefaultCaps(asset.ClassSensor)
		caps.SenseRange = 500
		a := &asset.Asset{
			Affiliation: asset.Blue,
			Class:       asset.ClassSensor,
			Caps:        caps,
			Online:      true,
			Mobility:    &geo.Static{P: geo.Point{X: x, Y: y}},
		}
		a.Energy = caps.EnergyCap
		return w.Pop.Add(a)
	}
	left := mk(600, 700)
	right := mk(800, 700)
	r.members = map[asset.ID]bool{left: true, right: true}
	r.Mission.Goal.Modalities = 0
	pos := geo.Point{X: 700, Y: 700} // exactly 100 from both
	for trial := 0; trial < 100; trial++ {
		if got := r.nearestDetector(pos); got != left {
			t.Fatalf("trial %d: nearestDetector = %v, want lowest equidistant ID %v", trial, got, left)
		}
	}
}
