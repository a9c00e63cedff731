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
	if m.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", m.Shards())
	}
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

func TestShardMapBandsTile(t *testing.T) {
	bounds := NewRect(Point{100, 0}, Point{1300, 900})
	m := NewShardMap(bounds, 5)
	// Bands tile the bounds: contiguous, non-overlapping, full cover.
	prev := bounds.Min.X
	for i := 0; i < m.Shards(); i++ {
		b := m.Band(i)
		if b.Min.X != prev {
			t.Fatalf("band %d starts at %v, want %v", i, b.Min.X, prev)
		}
		if b.Min.Y != bounds.Min.Y || b.Max.Y != bounds.Max.Y {
			t.Fatalf("band %d does not span the full height: %v", i, b)
		}
		prev = b.Max.X
	}
	if prev != bounds.Max.X {
		t.Fatalf("bands end at %v, want %v", prev, bounds.Max.X)
	}
	// Every band point maps back to its band.
	for i := 0; i < m.Shards(); i++ {
		c := m.Band(i).Center()
		if got := m.ShardOf(c); got != i {
			t.Fatalf("ShardOf(center of band %d) = %d", i, got)
		}
	}
}

func TestShardMapCrossed(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4)
	if sh, moved := m.Crossed(Point{100, 100}, Point{200, 900}); moved || sh != 0 {
		t.Fatalf("intra-band move reported crossing (shard %d, moved %v)", sh, moved)
	}
	if sh, moved := m.Crossed(Point{240, 100}, Point{260, 100}); !moved || sh != 1 {
		t.Fatalf("boundary crossing missed (shard %d, moved %v)", sh, moved)
	}
}

// TestShardMapBandEdges pins seam ownership: a position exactly on an
// interior band boundary belongs to the band on its right (bands are
// left-inclusive), and the world's right edge clamps into the last
// band. Mobility puts assets exactly on these lines, and two shards
// both claiming (or both disclaiming) a seam asset would corrupt the
// migration protocol.
func TestShardMapBandEdges(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1200, 800}), 4) // width 300, exact in float64
	for i := 1; i < m.Shards(); i++ {
		seam := m.Band(i).Min.X
		if seam != m.Band(i-1).Max.X {
			t.Fatalf("bands %d/%d do not share a seam: %v vs %v", i-1, i, m.Band(i-1).Max.X, seam)
		}
		if got := m.ShardOf(Point{seam, 400}); got != i {
			t.Errorf("ShardOf(seam %v) = %d, want right band %d", seam, got, i)
		}
	}
	if got := m.ShardOf(Point{1200, 0}); got != 3 {
		t.Errorf("ShardOf(right edge) = %d, want last band 3", got)
	}
	if got := m.ShardOf(Point{0, 800}); got != 0 {
		t.Errorf("ShardOf(left edge) = %d, want 0", got)
	}
}

// TestShardMapZeroWidthWorld covers the degenerate geometry where the
// bounds have no horizontal extent (all assets on one vertical line):
// the map must still hand out valid shard indices rather than divide by
// zero, with the whole line owned by shard 0 and the tiling invariants
// intact.
func TestShardMapZeroWidthWorld(t *testing.T) {
	m := NewShardMap(NewRect(Point{500, 0}, Point{500, 800}), 4)
	if m.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", m.Shards())
	}
	for _, p := range []Point{{500, 0}, {500, 400}, {500, 800}, {499, 100}, {501, 100}, {5000, 0}} {
		got := m.ShardOf(p)
		if got < 0 || got >= m.Shards() {
			t.Fatalf("ShardOf(%v) = %d, outside [0,%d)", p, got, m.Shards())
		}
	}
	if got := m.ShardOf(Point{500, 400}); got != 0 {
		t.Errorf("ShardOf(on the line) = %d, want 0", got)
	}
	for i := 0; i < m.Shards(); i++ {
		if b := m.Band(i); b.Min.Y != 0 || b.Max.Y != 800 {
			t.Errorf("band %d lost the vertical extent: %v", i, b)
		}
	}
}

// TestShardMapCrossedOnSeam pins the mobility edge case of a step
// landing exactly on a band boundary: the move must report exactly one
// crossing into the right-hand band, and a subsequent step that stays
// on the seam must not report a second one.
func TestShardMapCrossedOnSeam(t *testing.T) {
	m := NewShardMap(NewRect(Point{0, 0}, Point{1000, 1000}), 4) // seams at 250, 500, 750
	if sh, moved := m.Crossed(Point{240, 100}, Point{250, 100}); !moved || sh != 1 {
		t.Errorf("landing on seam 250: shard %d moved %v, want crossing into 1", sh, moved)
	}
	if sh, moved := m.Crossed(Point{250, 100}, Point{250, 900}); moved || sh != 1 {
		t.Errorf("sliding along seam 250: shard %d moved %v, want no crossing", sh, moved)
	}
	if sh, moved := m.Crossed(Point{250, 100}, Point{249, 100}); !moved || sh != 0 {
		t.Errorf("stepping off seam 250 leftward: shard %d moved %v, want crossing into 0", sh, moved)
	}
	if sh, moved := m.Crossed(Point{990, 100}, Point{1000, 100}); moved || sh != 3 {
		t.Errorf("landing on the world's right edge: shard %d moved %v, want clamp into 3 without crossing", sh, moved)
	}
}

func TestShardMapDegenerate(t *testing.T) {
	m := NewShardMap(Rect{}, 0)
	if m.Shards() != 1 {
		t.Fatalf("degenerate map shards = %d, want 1", m.Shards())
	}
	if got := m.ShardOf(Point{3, 4}); got != 0 {
		t.Fatalf("degenerate ShardOf = %d, want 0", got)
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
		if f.Map.Shards() != 4 || f.Map.Bounds() != f.Area {
			t.Errorf("%s: shard map %d bands over %v", tc.name, f.Map.Shards(), f.Map.Bounds())
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
			if got, want := eng.ActorShard(0), f.Map.ShardOf(f.Pos(0, 10*time.Second)); got != want {
				t.Errorf("actor on shard %d after its last tick, position is in band %d", got, want)
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
