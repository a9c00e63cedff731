package geo

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"iobt/internal/sim"
)

// ShardMap partitions a bounded area into vertical bands of equal
// width, one per shard. It is the spatial key behind the sharded
// simulation core: an actor is owned by the shard whose band holds its
// position, and crossing a band boundary under mobility triggers a
// shard migration. Vertical bands suit the battlefield workloads here —
// radio traffic is dominated by short-range neighbor exchange, so most
// frames stay inside one band and the conservative window protocol only
// pays for the boundary crossings.
type ShardMap struct {
	bounds Rect
	shards int
	width  float64
}

// NewShardMap partitions bounds into shards vertical bands. A
// non-positive shard count gets one band.
func NewShardMap(bounds Rect, shards int) *ShardMap {
	if shards < 1 {
		shards = 1
	}
	w := bounds.Width() / float64(shards)
	if w <= 0 {
		w = 1
	}
	return &ShardMap{bounds: bounds, shards: shards, width: w}
}

// ShardOf returns the shard owning position p. Positions outside the
// bounds clamp to the nearest band, so every point maps somewhere.
func (m *ShardMap) ShardOf(p Point) int {
	i := int((p.X - m.bounds.Min.X) / m.width)
	if i < 0 {
		return 0
	}
	if i >= m.shards {
		return m.shards - 1
	}
	return i
}

// DriftField is the mobility model under the sharded workloads: a
// population of actors, each oscillating in closed form around a fixed
// home point inside Area,
//
//	pos(i, t) = home_i + (ax sin(wx t + px), ay sin(wy t + py)),
//
// with amplitudes bounded by its drift. Positions are a pure function of
// setup constants and the clock, so any shard may evaluate any actor's
// position race-free and actor placement is identical at every shard
// count. The field also carries the ID-order digest its workload folds
// per-actor state into (Fold, Digest): the byte-level witness of
// shard-count invariance. Everything but that digest is written once by
// NewDriftField and only read during a run.
//
//iobt:frozen
type DriftField struct {
	Area  Rect
	Map   *ShardMap
	drift float64

	osc    []oscillator
	digest hash.Hash64
	buf    [8]byte
}

type oscillator struct {
	home                   Point
	ax, ay, wx, wy, px, py float64
}

// NewDriftField lays out n actors over a 3:2 field sized for constant
// density (side 400m per 25 actors, scaling with sqrt(n)), partitioned
// into shards bands, each actor drifting up to 25m from its home.
func NewDriftField(field *sim.RNG, n, shards int) *DriftField {
	side := 400 * math.Sqrt(float64(n)/25)
	return newDriftField(field, n, shards, NewRect(Point{X: 0, Y: 0}, Point{X: 1.5 * side, Y: side}), 25)
}

// newDriftField lays out n actors over area, partitioned into shards
// bands, each drifting up to drift from its home. Each actor's home and
// six oscillation parameters are drawn from field in ID order —
// shard-count independent by construction.
func newDriftField(field *sim.RNG, n, shards int, area Rect, drift float64) *DriftField {
	f := &DriftField{
		Area:   area,
		drift:  drift,
		Map:    NewShardMap(area, shards),
		osc:    make([]oscillator, n),
		digest: fnv.New64a(),
	}
	for i := range f.osc {
		o := &f.osc[i]
		o.home = Point{
			X: field.Uniform(area.Min.X, area.Max.X),
			Y: field.Uniform(area.Min.Y, area.Max.Y),
		}
		o.ax = field.Uniform(0, drift)
		o.ay = field.Uniform(0, drift)
		o.wx = field.Uniform(0.05, 0.4)
		o.wy = field.Uniform(0.05, 0.4)
		o.px = field.Uniform(0, 2*math.Pi)
		o.py = field.Uniform(0, 2*math.Pi)
	}
	return f
}

// Home returns actor i's home point.
func (f *DriftField) Home(i int) Point { return f.osc[i].home }

// Stray returns the largest distance actor i ever strays from its home
// point: both axes at full amplitude at once.
func (f *DriftField) Stray(i int) float64 { return math.Hypot(f.osc[i].ax, f.osc[i].ay) }

// Pos returns actor i's position at virtual time t.
func (f *DriftField) Pos(i int, t time.Duration) Point {
	o := &f.osc[i]
	ts := t.Seconds()
	return Point{
		X: o.home.X + o.ax*math.Sin(o.wx*ts+o.px),
		Y: o.home.Y + o.ay*math.Sin(o.wy*ts+o.py),
	}
}

// MobilityTick returns actor i's placement tick: it follows the actor's
// drift across shard bands, staging a migration whenever the band
// changes — purely a placement decision, invisible to model state — and
// reschedules itself every interval through horizon. An actor that has
// failed (stopAt reached; zero means never) stops ticking. The closure
// is built once and rescheduled by value, so ticking allocates nothing.
func (f *DriftField) MobilityTick(i int, every, horizon, stopAt time.Duration) func(*sim.ShardCtx) {
	var tick func(*sim.ShardCtx)
	tick = func(c *sim.ShardCtx) {
		now := c.Now()
		if stopAt != 0 && now >= stopAt {
			return
		}
		c.Migrate(f.Map.ShardOf(f.Pos(i, now)))
		if now+every <= horizon {
			c.Schedule(every, "mobility", tick)
		}
	}
	return tick
}

// Fold appends v, big-endian, to the field's FNV-1a digest.
func (f *DriftField) Fold(v uint64) {
	binary.BigEndian.PutUint64(f.buf[:], v)
	_, _ = f.digest.Write(f.buf[:])
}

// Digest returns the digest of everything folded so far.
func (f *DriftField) Digest() uint64 { return f.digest.Sum64() }
