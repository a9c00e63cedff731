package cop

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/geo"
)

// model is the reference the run representation is checked against: the
// map-of-maps replica this package used to be, reduced to what a receive
// needs — decode a frame leniently, merge it entry by entry, encode by
// collecting and sorting keys. It shares no code with the runs or the
// join.
type model struct {
	tracks map[TrackKey]trackReg
	trust  map[asset.ID]map[asset.ID]Evidence
	cells  map[Cell]bool
}

func newModel() *model {
	return &model{
		tracks: map[TrackKey]trackReg{},
		trust:  map[asset.ID]map[asset.ID]Evidence{},
		cells:  map[Cell]bool{},
	}
}

// mergeFrame decodes data with no validation at all and merges it. Only
// for frames the package has accepted (whose counts are therefore sane).
func (m *model) mergeFrame(data []byte) {
	d := checkpoint.NewDecoder(data[headerBytes:])
	for n := d.Int(); n > 0; n-- {
		r := trackReg{Key: TrackKey{Actor: asset.ID(d.Int64()), ID: d.Int()}}
		r.Fix.Pos = geo.Point{X: d.Float64(), Y: d.Float64()}
		r.Fix.Vel = geo.Vec{DX: d.Float64(), DY: d.Float64()}
		r.Fix.Hits = d.Int()
		r.Fix.Confirmed = d.Bool()
		r.Stamp = Stamp{T: time.Duration(d.Int64()), Actor: asset.ID(d.Int64())}
		if cur, ok := m.tracks[r.Key]; !ok || r.Stamp.After(cur.Stamp) {
			m.tracks[r.Key] = r
		}
	}
	for rows := d.Int(); rows > 0; rows-- {
		subject := asset.ID(d.Int64())
		if m.trust[subject] == nil {
			m.trust[subject] = map[asset.ID]Evidence{}
		}
		for n := d.Int(); n > 0; n-- {
			observer := asset.ID(d.Int64())
			e := Evidence{Alpha: d.Float64(), Beta: d.Float64()}
			m.trust[subject][observer] = m.trust[subject][observer].join(e)
		}
	}
	for n := d.Int(); n > 0; n-- {
		m.cells[Cell{X: int32(d.Int64()), Y: int32(d.Int64())}] = true
	}
}

func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

func lessID(a, b asset.ID) bool { return a < b }

// encodeState is the old collect-and-sort encoder.
func (m *model) encodeState() []byte {
	e := checkpoint.NewEncoder()
	e.Int(len(m.tracks))
	for _, k := range sortedKeys(m.tracks, func(a, b TrackKey) bool {
		return a.Actor < b.Actor || a.Actor == b.Actor && a.ID < b.ID
	}) {
		r := m.tracks[k]
		e.Int64(int64(k.Actor))
		e.Int(k.ID)
		e.Float64(r.Fix.Pos.X)
		e.Float64(r.Fix.Pos.Y)
		e.Float64(r.Fix.Vel.DX)
		e.Float64(r.Fix.Vel.DY)
		e.Int(r.Fix.Hits)
		e.Bool(r.Fix.Confirmed)
		e.Int64(int64(r.Stamp.T))
		e.Int64(int64(r.Stamp.Actor))
	}
	e.Int(len(m.trust))
	for _, s := range sortedKeys(m.trust, lessID) {
		e.Int64(int64(s))
		e.Int(len(m.trust[s]))
		for _, o := range sortedKeys(m.trust[s], lessID) {
			e.Int64(int64(o))
			e.Float64(m.trust[s][o].Alpha)
			e.Float64(m.trust[s][o].Beta)
		}
	}
	e.Int(len(m.cells))
	for _, c := range sortedKeys(m.cells, func(a, b Cell) bool { return a.X < b.X || a.X == b.X && a.Y < b.Y }) {
		e.Int64(int64(c.X))
		e.Int64(int64(c.Y))
	}
	return e.Bytes()
}

// Decode and read are the reference validator MergeEncoded's walk is
// checked against: the decoder the walk replaced, which decodes and
// checks every record of a frame into a fresh replica. The two must
// accept exactly the same frames.

// Decode reconstructs a replica from Encode's output; it accepts exactly
// the frames MergeEncoded does.
func Decode(data []byte) (*Picture, error) {
	f := frame{rest: data}
	p := &Picture{self: asset.ID(f.i32(f.next(headerBytes)))}
	if err := p.read(&f); err != nil {
		return nil, err
	}
	return p, nil
}

// read loads the rest of f into s (overwriting it, reusing its storage)
// while checking that the bytes are canonical: every count covered by the
// bytes behind it, keys strictly ascending, no empty row, every scalar as
// Encode writes it, nothing left over.
func (s *state) read(f *frame) error {
	s.tracks = s.tracks[:0]
	for n := f.count(trackBytes); n > 0 && f.bad == nil; n-- {
		b := f.next(trackBytes)
		f.must(b[56] <= 1, "a flag byte is not 0 or 1")
		r := trackReg{
			Key: TrackKey{Actor: asset.ID(f.i32(b)), ID: int(le(b[8:]))},
			Fix: TrackFix{
				Pos: geo.Point{X: f64(b[16:]), Y: f64(b[24:])}, Vel: geo.Vec{DX: f64(b[32:]), DY: f64(b[40:])},
				Hits: int(le(b[48:])), Confirmed: b[56] == 1,
			},
			Stamp: Stamp{T: time.Duration(le(b[57:])), Actor: asset.ID(f.i32(b[65:]))},
		}
		k := len(s.tracks)
		f.must(k == 0 || cmpTrack(&s.tracks[k-1], &r) < 0, "tracks out of order")
		s.tracks = append(s.tracks, r)
	}

	s.trust = s.trust[:0]
	for rows := f.count(trustRow); rows > 0 && f.bad == nil; rows-- {
		r := trustReg{Subject: asset.ID(f.i32(f.next(8)))}
		k := len(s.trust)
		f.must(k == 0 || s.trust[k-1].Subject < r.Subject, "trust subjects out of order")
		n := f.count(trustBytes)
		f.must(n > 0, "a trust subject has no observer")
		for ; n > 0 && f.bad == nil; n-- {
			b := f.next(trustBytes)
			r.Observer, r.Alpha, r.Beta = asset.ID(f.i32(b)), f.evidence(b[8:]), f.evidence(b[16:])
			f.must(len(s.trust) == k || s.trust[len(s.trust)-1].Observer < r.Observer, "trust observers out of order")
			s.trust = append(s.trust, r)
		}
	}

	s.cells = s.cells[:0]
	for n := f.count(cellBytes); n > 0 && f.bad == nil; n-- {
		b := f.next(cellBytes)
		c := Cell{X: f.i32(b), Y: f.i32(b[8:])}
		k := len(s.cells)
		f.must(k == 0 || cmpCell(&s.cells[k-1], &c) < 0, "coverage cells out of order")
		s.cells = append(s.cells, c)
	}

	f.must(len(f.rest) == 0, "bytes after the last section")
	if f.bad != nil {
		return fmt.Errorf("cop: decode: frame is not canonical: %w", f.bad)
	}
	return nil
}

// allocBytes returns the heap bytes f allocated.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what receiving data into a replica whose encoding is
// held bytes long may allocate: the decoded frame is at most 1.5x its
// wire size and a run that must grow is reallocated at up to twice the
// merged size, both through amortized doubling; the slack covers the
// error value.
func allocBound(data, held int) uint64 { return uint64(16*(data+held) + 4096) }

// frameOf hand-assembles a frame: a header, then whatever body writes.
func frameOf(body func(e *checkpoint.Encoder)) []byte {
	e := checkpoint.NewEncoder()
	e.Int64(1)
	body(e)
	return e.Bytes()
}

func track(e *checkpoint.Encoder, actor int64, id int) {
	e.Int64(actor)
	e.Int(id)
	for i := 0; i < 4; i++ {
		e.Float64(float64(i))
	}
	e.Int(3)
	e.Bool(true)
	e.Int64(int64(time.Second))
	e.Int64(actor)
}

func ints(e *checkpoint.Encoder, vs ...int64) {
	for _, v := range vs {
		e.Int64(v)
	}
}

func bits(v float64) int64 { return int64(math.Float64bits(v)) }

// hostileFrames are frames no Encode emits. The first group lies about a
// count (the first of them is the 48-byte frame that used to end the
// process inside Decode with "fatal error: out of memory": one trust
// subject claiming 2^34 observers); the second group is well-sized but
// not canonical.
var hostileFrames = []struct {
	name string
	data []byte
}{
	{"observer count 2^34", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1, 7, 1<<34) })},
	{"track count 2^34", frameOf(func(e *checkpoint.Encoder) { ints(e, 1<<34) })},
	{"subject count 2^34", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1<<34) })},
	{"cell count 2^34", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 0, 1<<34) })},
	{"negative track count", frameOf(func(e *checkpoint.Encoder) { ints(e, -1) })},
	{"count one past the bytes", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 0, 2, 1, 1) })},

	{"descending tracks", frameOf(func(e *checkpoint.Encoder) { e.Int(2); track(e, 2, 0); track(e, 1, 0); ints(e, 0, 0) })},
	{"duplicate track", frameOf(func(e *checkpoint.Encoder) { e.Int(2); track(e, 1, 4); track(e, 1, 4); ints(e, 0, 0) })},
	{"descending subjects", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 2, 9, 1, 1, bits(1), bits(1), 8, 1, 1, bits(1), bits(1), 0) })},
	{"subject split over two rows", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 2, 9, 1, 1, bits(1), bits(1), 9, 1, 2, bits(1), bits(1), 0) })},
	{"duplicate observer", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1, 9, 2, 1, bits(1), bits(1), 1, bits(2), bits(2), 0) })},
	{"subject with no observer", frameOf(func(e *checkpoint.Encoder) {
		ints(e, 0, 2, 9, 0, 10, 3, 1, bits(1), bits(1), 2, bits(1), bits(1), 3, bits(1), bits(1), 0)
	})},
	{"negative evidence", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1, 9, 1, 1, bits(-1), bits(1), 0) })},
	{"negative zero evidence", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1, 9, 1, 1, bits(math.Copysign(0, -1)), bits(1), 0) })},
	{"NaN evidence", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 1, 9, 1, 1, bits(1), bits(math.NaN()), 0) })},
	{"descending cells", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 0, 2, 1, 5, 1, 1) })},
	{"duplicate cell", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 0, 2, 1, 5, 1, 5) })},
	{"actor beyond int32", frameOf(func(e *checkpoint.Encoder) { e.Int(1); track(e, 1<<32+1, 0); ints(e, 0, 0) })},
	{"cell beyond int32", frameOf(func(e *checkpoint.Encoder) { ints(e, 0, 0, 1, 1<<31, 1) })},
	{"flag byte 2", func() []byte {
		data := frameOf(func(e *checkpoint.Encoder) { e.Int(1); track(e, 1, 0); ints(e, 0, 0) })
		data[headerBytes+8+7*8] = 2
		return data
	}()},
	{"trailing byte", append(NewPicture(1).Encode(), 0)},
}

// TestHostileFramesRejected: every hostile frame is an error from both
// entry points, costs memory proportional to its own few bytes, and
// leaves the receiving replica exactly as it was.
func TestHostileFramesRejected(t *testing.T) {
	for _, h := range hostileFrames {
		p := randomPicture(4, 2)
		_ = p.MergeEncoded(p.Encode()) // scratch warm, as on a live receive path
		before := p.Encode()

		var err error
		grew := allocBytes(func() { err = p.MergeEncoded(h.data) })
		if err == nil {
			t.Errorf("%s: MergeEncoded accepted the frame", h.name)
		}
		if limit := allocBound(len(h.data), 0); grew > limit {
			t.Errorf("%s: MergeEncoded allocated %d bytes for a %d-byte frame, limit %d", h.name, grew, len(h.data), limit)
		}
		if !bytes.Equal(p.Encode(), before) {
			t.Errorf("%s: rejected frame changed the replica", h.name)
		}

		grew = allocBytes(func() { _, err = Decode(h.data) })
		if err == nil {
			t.Errorf("%s: Decode accepted the frame", h.name)
		}
		if limit := allocBound(len(h.data), 0); grew > limit {
			t.Errorf("%s: Decode allocated %d bytes for a %d-byte frame, limit %d", h.name, grew, len(h.data), limit)
		}
	}
}

// TestMergeEncodedMatchesMerge: receiving o's bytes is the same as
// merging o, and both are what the map-based model computes.
func TestMergeEncodedMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		o := randomPicture(seed, 1)
		viaBytes, viaPointer := randomPicture(seed+100, 2), randomPicture(seed+100, 2)
		m := newModel()
		m.mergeFrame(viaBytes.Encode())

		if err := viaBytes.MergeEncoded(o.Encode()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		viaPointer.Merge(o)
		m.mergeFrame(o.Encode())

		if !bytes.Equal(viaBytes.Encode(), viaPointer.Encode()) {
			t.Fatalf("seed %d: MergeEncoded(o.Encode()) differs from Merge(o)", seed)
		}
		if !bytes.Equal(viaBytes.Encode()[headerBytes:], m.encodeState()) {
			t.Fatalf("seed %d: merged replica differs from the map-based model", seed)
		}
		if !viaBytes.Dominates(o) || !viaBytes.Dominates(viaPointer) {
			t.Fatalf("seed %d: merged replica does not dominate its inputs", seed)
		}
	}
}

// TestEncodeIsCanonical: what Encode writes, Decode accepts and writes
// back byte for byte, and MergeEncoded accepts too — including after
// merges, the route by which a replica's runs are built out of order.
// Digest, which builds no encoding, is the FNV-1a hash of the replicated
// part of it.
func TestEncodeIsCanonical(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		p := mergeOf(randomPicture(seed, 5), randomPicture(seed+50, 3), randomPicture(seed+100, 9))
		data := p.Encode()
		if want := headerBytes + p.wireSize(); len(data) != want {
			t.Fatalf("seed %d: Encode wrote %d bytes, wireSize promised %d", seed, len(data), want)
		}
		q, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: Decode rejects Encode's output: %v", seed, err)
		}
		if !bytes.Equal(q.Encode(), data) {
			t.Fatalf("seed %d: Decode(p.Encode()).Encode() != p.Encode()", seed)
		}
		if err := NewPicture(0).MergeEncoded(data); err != nil {
			t.Fatalf("seed %d: MergeEncoded rejects Encode's output: %v", seed, err)
		}
		h := fnv.New64a()
		_, _ = h.Write(data[headerBytes:])
		if got, want := p.Digest(), h.Sum64(); got != want {
			t.Fatalf("seed %d: Digest %#x, FNV-1a of the encoding %#x", seed, got, want)
		}
	}
}

// gossipFrame is the gossip_cop shape: the union of n publishers' single
// track and covered cell.
func gossipFrame(n int) (*Picture, []byte) {
	all := NewPicture(0)
	for i := 0; i < n; i++ {
		all.Merge(publisher(i))
	}
	return all, all.Encode()
}

// publisher is publisher i's own picture in gossipFrame: one track and
// one covered cell.
func publisher(i int) *Picture {
	p := NewPicture(asset.ID(i))
	p.Cover(Cell{X: 1, Y: int32(i)})
	p.ObserveTrack(1, TrackFix{Pos: geo.Point{X: float64(i), Y: 1}}, time.Duration(i)*time.Second)
	return p
}

// raceDetector is set by race_test.go. Under -race sync.Pool deliberately
// sheds a quarter of what it is handed, so the scratch pool cannot hold
// the zero-allocation pin there.
var raceDetector bool

// TestMergeEncodedDominatedFrameAllocatesNothing pins the steady state of
// a gossip round: two thirds of the frames a node is handed carry
// nothing it lacks, and folding those in must not touch the heap.
func TestMergeEncodedDominatedFrameAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p, frame := gossipFrame(54)
	if tracks, _, cells := p.Counts(); tracks != 54 || cells != 54 {
		t.Fatalf("frame holds %d tracks and %d cells, want 54 and 54", tracks, cells)
	}
	if err := p.MergeEncoded(frame); err != nil { // scratch reaches its high-water mark
		t.Fatal(err)
	}
	before := p.Digest()
	if n := testing.AllocsPerRun(100, func() {
		if err := p.MergeEncoded(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("re-merging a dominated frame: %v allocs/op, want 0", n)
	}
	if p.Digest() != before {
		t.Error("re-merging a dominated frame changed the replica")
	}
}

// checkAllocRate runs run, which reports how many events it executed,
// and fails t unless the heap objects allocated per event are want: the
// exact runtime.MemStats.Mallocs delta over at least 10⁴ events, as a
// ratio, to within 1/1000 (the sim package's pins explain the choice).
// run is called twice and only the second call is measured.
func checkAllocRate(t *testing.T, what string, want float64, run func() uint64) {
	t.Helper()
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// The merge scratch lives in a sync.Pool. A collection empties the
	// pool, and a goroutine the scheduler moves to another P leaves the
	// pool's per-P copy behind; either way the loop refills the scratch,
	// which would count as a steady-state allocation. So the measured
	// call runs on one P with the collector held off, after an unmeasured
	// call has filled the pool on that P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run()
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

// TestMergeAllocRate pins the gossip_cop receive, a dominated frame
// folded into a replica, at 0 heap objects per merge over 10⁴ merges.
func TestMergeAllocRate(t *testing.T) {
	p, frame := gossipFrame(54)
	checkAllocRate(t, "dominated merge", 0, func() uint64 {
		const merges = 10_000
		for i := 0; i < merges; i++ {
			if err := p.MergeEncoded(frame); err != nil {
				t.Fatal(err)
			}
		}
		return merges
	})
}

// digestSink keeps TestDigestAllocRate's calls from being optimized away.
var digestSink uint64

// TestDigestAllocRate pins Digest, which gossip_cop takes of every node's
// replica once a unit, at 0 heap objects per call over 10⁴ calls.
func TestDigestAllocRate(t *testing.T) {
	p, _ := gossipFrame(54)
	checkAllocRate(t, "digest", 0, func() uint64 {
		const calls = 10_000
		for i := 0; i < calls; i++ {
			digestSink ^= p.Digest()
		}
		return calls
	})
}

// FuzzMergeEncoded feeds MergeEncoded arbitrary bytes. It must never
// panic, never allocate out of proportion to the bytes it was handed,
// leave the replica untouched when it refuses a frame, accept exactly
// the frames the reference validator (Decode) accepts, and when it
// accepts one agree with the canonical-frame contract
// (accepted bytes re-encode to themselves) and with the map-based model.
func FuzzMergeEncoded(f *testing.F) {
	// Three replicas make a real frame of about 1.8 KB, each cut of it a
	// seed.
	real := mergeOf(randomPicture(3, 7), randomPicture(8, 4), randomPicture(13, 9)).Encode()
	for cut := 0; cut <= len(real); cut++ {
		f.Add(real[:cut])
	}
	for _, h := range hostileFrames {
		f.Add(h.data)
	}
	// The paths that overwrite a held record, which gossip_cop never
	// takes: the receiver's own track restamped later, and its evidence
	// about a subject it holds grown in alpha alone and in beta alone.
	held := randomPicture(11, 2)
	newer := held.Clone()
	newer.ObserveTrack(0, TrackFix{Hits: 99}, time.Hour)
	f.Add(newer.Encode())
	for _, e := range []Evidence{{Alpha: 100}, {Beta: 100}} {
		larger := held.Clone()
		larger.ObserveTrust(held.trust[0].Subject, e.Alpha, e.Beta)
		f.Add(larger.Encode())
	}
	receiver := held.Encode()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(receiver)
		if err != nil {
			t.Fatal(err)
		}
		grew := allocBytes(func() { err = p.MergeEncoded(data) })
		if limit := allocBound(len(data), len(receiver)); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte frame, limit %d", grew, len(data), limit)
		}
		q, decErr := Decode(data)
		if (err == nil) != (decErr == nil) {
			t.Fatalf("MergeEncoded says %v, Decode says %v", err, decErr)
		}
		if err != nil {
			if !bytes.Equal(p.Encode(), receiver) {
				t.Fatal("rejected frame changed the replica")
			}
			return
		}
		if !bytes.Equal(q.Encode(), data) {
			t.Fatal("accepted frame is not canonical: it does not re-encode to itself")
		}
		m := newModel()
		m.mergeFrame(receiver)
		m.mergeFrame(data)
		if !bytes.Equal(p.Encode()[headerBytes:], m.encodeState()) {
			t.Fatal("merged replica differs from the map-based model")
		}
		if !p.Dominates(q) {
			t.Fatal("replica does not dominate a frame it just merged")
		}
	})
}
