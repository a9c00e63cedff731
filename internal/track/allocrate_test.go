package track

import (
	"math"
	"runtime"
	"testing"
	"time"

	"iobt/internal/geo"
)

// raceDetector is set by race_test.go: the race runtime allocates on
// its own account, so the rate pins skip under -race.
var raceDetector bool

// checkAllocRate runs run, which reports how many events it executed,
// and fails t unless the heap objects allocated per event are want: the
// exact runtime.MemStats.Mallocs delta over at least 10⁴ events, as a
// ratio, to within 1/1000 (the sim package's pins explain the choice).
func checkAllocRate(t *testing.T, what string, want float64, run func() uint64) {
	t.Helper()
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := run()
	runtime.ReadMemStats(&after)
	if events < 10_000 {
		t.Fatalf("%s: %d events measured, want at least 10⁴", what, events)
	}
	if got := float64(after.Mallocs-before.Mallocs) / float64(events); math.Abs(got-want) > 1.0/1000 {
		t.Errorf("%s: %.4f heap objects per event over %d events, want %v", what, got, events, want)
	}
}

// TestObserveAllocRate pins Tracker.Observe, one call per tick, over 10⁴
// ticks. At a fixed set of 20 moving targets a tick allocates nothing.
// With one new target entering each tick, far from every track, a tick
// allocates the spawn alone, 4 objects: the Track, its filter, and its
// sensor set's map header and one group. Each spawned track coasts out after 5s, so the track list
// stops growing.
func TestObserveAllocRate(t *testing.T) {
	const targets, ticks = 20, 10_000
	for _, c := range []struct {
		what  string
		spawn bool
		want  float64
	}{{"fixed target set", false, 0}, {"one spawn a tick", true, 4}} {
		tr := NewTracker(Config{})
		dets := make([]Detection, targets, targets+1)
		now := time.Duration(0)
		tick := func(i int) {
			now += time.Second
			for j := range dets[:targets] {
				phase := now.Seconds() + float64(j)
				dets[j] = Detection{Pos: geo.Point{X: float64(j%5)*200 + 10*math.Sin(phase), Y: float64(j/5)*200 + 10*math.Cos(phase)}, Var: 25, Sensor: int32(j % 4)}
			}
			dets = dets[:targets]
			if c.spawn {
				dets = append(dets, Detection{Pos: geo.Point{X: 1e6 + float64(i)*1e3, Y: -1e6}, Var: 25})
			}
			tr.Observe(now, dets)
		}
		for i := 0; i < 20; i++ { // confirm the targets and reach the spawned tracks' steady count
			tick(i)
		}
		checkAllocRate(t, c.what, c.want, func() uint64 {
			for i := 20; i < 20+ticks; i++ {
				tick(i)
			}
			return ticks
		})
	}
}
