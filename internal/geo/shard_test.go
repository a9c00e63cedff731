package geo

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"iobt/internal/sim"
)

func TestShardMapPartition(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1200, 800}), 4)
	cases := []struct {
		p    Point
		want int
	}{
		{Point{0, 0}, 0},
		{Point{299, 799}, 0},
		{Point{300, 0}, 1},
		{Point{899, 400}, 2},
		{Point{1199, 0}, 3},
		{Point{-50, 0}, 0},    // clamped left
		{Point{5000, 0}, 3},   // clamped right
		{Point{1200, 400}, 3}, // boundary clamps into the last band
	}
	for _, tc := range cases {
		if got := m.ShardOf(tc.p); got != tc.want {
			t.Errorf("ShardOf(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestShardMapBandsTile: over bounds that do not start at zero, a
// left-to-right sweep meets every band once and in order, band i's
// centre maps to i, and a band spans all heights (ShardOf ignores Y).
func TestShardMapBandsTile(t *testing.T) {
	bounds := NewRect(Point{100, 0}, Point{1300, 900})
	m := NewShardMap(bounds, 5) // bands 240 wide
	band := 0
	for x := bounds.Min.X; x <= bounds.Max.X; x += 10 {
		got := m.ShardOf(Point{x, 450})
		if got != band && got != band+1 {
			t.Fatalf("ShardOf(x=%v) = %d after band %d: a band skipped or revisited", x, got, band)
		}
		band = got
	}
	if band != 4 {
		t.Fatalf("sweep ends in band %d, want 4", band)
	}
	for i := 0; i < 5; i++ {
		x := bounds.Min.X + (float64(i)+0.5)*240
		for _, y := range []float64{bounds.Min.Y, 450, bounds.Max.Y, -1e6} {
			if got := m.ShardOf(Point{x, y}); got != i {
				t.Fatalf("ShardOf(centre of band %d at y=%v) = %d", i, y, got)
			}
		}
	}
}

// move is one mobility step and the bands expected at its two ends.
type move struct {
	from, to Point
	want     [2]int
}

// checkMoves asserts the bands at both ends of each move. MobilityTick
// stages Migrate(ShardOf(pos)) on every tick, so a move crosses into
// another shard exactly when the two differ.
func checkMoves(t *testing.T, m *ShardMap, moves []move) {
	t.Helper()
	for _, mv := range moves {
		if got := [2]int{m.ShardOf(mv.from), m.ShardOf(mv.to)}; got != mv.want {
			t.Errorf("move %v -> %v: bands %v, want %v", mv.from, mv.to, got, mv.want)
		}
	}
}

func TestShardMapCrossed(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4)
	checkMoves(t, m, []move{
		{Point{100, 100}, Point{200, 900}, [2]int{0, 0}}, // inside one band
		{Point{240, 100}, Point{260, 100}, [2]int{0, 1}}, // across the seam at 250
	})
}

// TestShardMapBandEdges pins seam ownership: a position exactly on an
// interior band boundary belongs to the band on its right (bands are
// left-inclusive), the last position before it to the band on its left,
// and both clamps hold past the world's edges. Mobility puts assets
// exactly on these lines, and two shards both claiming (or both
// disclaiming) a seam asset would corrupt the migration protocol.
func TestShardMapBandEdges(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1200, 800}), 4) // width 300, exact in float64
	for i := 1; i < 4; i++ {
		seam := float64(i) * 300
		if got := m.ShardOf(Point{seam, 400}); got != i {
			t.Errorf("ShardOf(seam %v) = %d, want right band %d", seam, got, i)
		}
		if got := m.ShardOf(Point{math.Nextafter(seam, 0), 400}); got != i-1 {
			t.Errorf("ShardOf(just left of seam %v) = %d, want band %d", seam, got, i-1)
		}
	}
	for _, tc := range []struct {
		x    float64
		want int
	}{
		{0, 0},    // left edge
		{-1e9, 0}, // clamped left
		{1200, 3}, // right edge clamps into the last band
		{1e9, 3},  // clamped right
	} {
		if got := m.ShardOf(Point{tc.x, 400}); got != tc.want {
			t.Errorf("ShardOf(x=%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

// TestShardMapZeroWidthWorld covers the degenerate geometry where the
// bounds have no horizontal extent (all assets on one vertical line):
// the map must still hand out valid shard indices rather than divide by
// zero, with the whole line owned by shard 0.
func TestShardMapZeroWidthWorld(t *testing.T) {
	m := NewShardMap(NewRect(Point{500, 0}, Point{500, 800}), 4)
	for _, p := range []Point{{500, 0}, {500, 400}, {500, 800}, {499, 100}, {501, 100}, {5000, 0}} {
		if got := m.ShardOf(p); got < 0 || got >= 4 {
			t.Fatalf("ShardOf(%v) = %d, outside [0,4)", p, got)
		}
	}
	if got := m.ShardOf(Point{500, 400}); got != 0 {
		t.Errorf("ShardOf(on the line) = %d, want 0", got)
	}
}

// TestShardMapCrossedOnSeam pins the mobility edge case of a step
// landing exactly on a band boundary: the move crosses into the
// right-hand band once, a step that stays on the seam does not cross
// again, and a step onto the world's right edge clamps without crossing.
func TestShardMapCrossedOnSeam(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4) // seams at 250, 500, 750
	checkMoves(t, m, []move{
		{Point{240, 100}, Point{250, 100}, [2]int{0, 1}},  // landing on seam 250
		{Point{250, 100}, Point{250, 900}, [2]int{1, 1}},  // sliding along it
		{Point{250, 100}, Point{249, 100}, [2]int{1, 0}},  // stepping off leftward
		{Point{990, 100}, Point{1000, 100}, [2]int{3, 3}}, // onto the right edge
	})
}

func TestShardMapDegenerate(t *testing.T) {
	m := NewShardMap(Rect{}, 0)
	for _, p := range []Point{{3, 4}, {-1e9, 0}, {1e9, 0}} {
		if got := m.ShardOf(p); got != 0 {
			t.Fatalf("degenerate ShardOf(%v) = %d, want the one band 0", p, got)
		}
	}
}

func TestDriftFieldDefaultsAndBounds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		area      Rect
		drift     float64
		wantArea  Rect
		wantDrift float64
	}{
		{"defaults", Rect{}, 0, NewRect(Point{0, 0}, Point{1200, 800}), 25},
		{"pinned", Rect{}, -1, NewRect(Point{0, 0}, Point{1200, 800}), 0},
		{"explicit", NewRect(Point{10, 20}, Point{500, 300}), 60, NewRect(Point{10, 20}, Point{500, 300}), 60},
	} {
		f := NewDriftField(sim.NewRNG(9).Derive("field"), 100, 4, tc.area, tc.drift)
		if f.Area != tc.wantArea || f.Drift != tc.wantDrift {
			t.Errorf("%s: area %v drift %v, want %v and %v", tc.name, f.Area, f.Drift, tc.wantArea, tc.wantDrift)
		}
		if f.Map.shards != 4 || f.Map.bounds != f.Area {
			t.Errorf("%s: shard map %d bands over %v", tc.name, f.Map.shards, f.Map.bounds)
		}
		same := NewDriftField(sim.NewRNG(9).Derive("field"), 100, 1, tc.area, tc.drift)
		for i := 0; i < 100; i++ {
			home := f.Home(i)
			if !f.Area.Contains(home) {
				t.Fatalf("%s: actor %d home %v outside %v", tc.name, i, home, f.Area)
			}
			for _, at := range []time.Duration{0, 3 * time.Second, 77 * time.Second} {
				p := f.Pos(i, at)
				if math.Abs(p.X-home.X) > f.Drift || math.Abs(p.Y-home.Y) > f.Drift {
					t.Fatalf("%s: actor %d at %v strays %v from home %v (drift %v)", tc.name, i, at, p, home, f.Drift)
				}
				if p != same.Pos(i, at) {
					t.Fatalf("%s: actor %d position depends on the shard count", tc.name, i)
				}
			}
		}
	}
}

// TestDriftFieldMobilityTick: the placement tick reschedules itself
// through the horizon, stops for good once its actor has failed, and
// keeps the actor on the band under its position.
func TestDriftFieldMobilityTick(t *testing.T) {
	for _, tc := range []struct {
		stopAt time.Duration
		events uint64
	}{
		{0, 10},                      // ticks at 1s..10s
		{4500 * time.Millisecond, 5}, // 1s..4s, then the 5s tick finds it dead
	} {
		eng := sim.NewSharded(3, sim.ShardedConfig{Shards: 4})
		f := NewDriftField(eng.Stream("field"), 1, 4, NewRect(Point{0, 0}, Point{40, 40}), 200)
		eng.AddActor(0, f.Map.ShardOf(f.Home(0)))
		eng.ScheduleActor(0, time.Second, "mobility", f.MobilityTick(0, time.Second, 10*time.Second, tc.stopAt))
		if err := eng.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := eng.Processed(); got != tc.events {
			t.Errorf("stopAt=%v: %d mobility events, want %d", tc.stopAt, got, tc.events)
		}
		if tc.stopAt == 0 {
			// A probe event runs on whichever lane owns the actor once the
			// last tick's migration has been applied.
			shard := -1
			eng.ScheduleActor(0, 0, "probe", func(c *sim.ShardCtx) { shard = c.Shard() })
			if err := eng.Run(0); err != nil {
				t.Fatal(err)
			}
			if want := f.Map.ShardOf(f.Pos(0, 10*time.Second)); shard != want {
				t.Errorf("actor on shard %d after its last tick, position is in band %d", shard, want)
			}
		}
	}
}

// TestDriftFieldDigest pins the fold format — FNV-1a over each value's
// big-endian bytes — that every committed E18 and shard-mission digest
// was produced with.
func TestDriftFieldDigest(t *testing.T) {
	f := NewDriftField(sim.NewRNG(1), 1, 1, Rect{}, 0)
	if got := f.Digest(); got != 0xcbf29ce484222325 {
		t.Errorf("empty digest %x, want the FNV-1a offset basis", got)
	}
	f.Fold(1)
	f.Fold(0x0102030405060708)
	want := fnv.New64a()
	_, _ = want.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	if got := f.Digest(); got != want.Sum64() {
		t.Errorf("digest %x, want %x", got, want.Sum64())
	}
}
