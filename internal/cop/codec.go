package cop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/geo"
)

// Wire widths of the replica-local header (owner, tag sequence), of one
// record, and of a row header plus its first record (no row is empty).
// read bounds every count by the bytes left divided by these, so a peer
// cannot make it reserve more than it sent.
const (
	headerBytes = 2 * 8
	trackBytes  = 9*8 + 1
	trustBytes  = 3 * 8
	tagBytes    = 2 * 8
	trustRow    = 2*8 + trustBytes
	cellRow     = 3*8 + tagBytes
)

// Encode serializes the replica deterministically: the runs are already
// in key order, so equal states produce equal bytes and Digest can stand
// in for deep comparison.
func (p *Picture) Encode() []byte {
	e := checkpoint.NewEncoder()
	e.Grow(headerBytes + p.wireSize())
	e.Int64(int64(p.self))
	e.Uint64(p.seq)
	p.write(e)
	return e.Bytes()
}

// Digest hashes the deterministic encoding of the replicated state —
// identity fields excluded, so two converged replicas with different
// owners digest identically. Equal digests mean equal replicated state.
func (p *Picture) Digest() uint64 {
	e := checkpoint.NewEncoder()
	e.Grow(p.wireSize())
	p.write(e)
	h := fnv.New64a()
	_, _ = h.Write(e.Bytes())
	return h.Sum64()
}

// wireSize is the length of what write emits, so that Encode and Digest
// allocate their buffer once and Encode returns no slack.
func (s *state) wireSize() int {
	n := 4*8 + len(s.tracks)*trackBytes + len(s.trust)*trustBytes + (len(s.adds)+len(s.removes))*tagBytes
	for i := 0; i < len(s.trust); i = s.subjectEnd(i) {
		n += trustRow - trustBytes
	}
	for i := 0; i < len(s.adds); i = s.cellEnd(i) {
		n += cellRow - tagBytes
	}
	return n
}

// write dumps the replicated state. Trust and adds are written as rows:
// the subject (cell) once, then its observers (tags).
func (s *state) write(e *checkpoint.Encoder) {
	e.Int(len(s.tracks))
	for i := range s.tracks {
		r := &s.tracks[i]
		e.Int64(int64(r.Key.Actor))
		e.Int(r.Key.ID)
		e.Float64(r.Fix.Pos.X)
		e.Float64(r.Fix.Pos.Y)
		e.Float64(r.Fix.Vel.DX)
		e.Float64(r.Fix.Vel.DY)
		e.Int(r.Fix.Hits)
		e.Bool(r.Fix.Confirmed)
		e.Int64(int64(r.Stamp.T))
		e.Int64(int64(r.Stamp.Actor))
	}

	rows := 0
	for i := 0; i < len(s.trust); i = s.subjectEnd(i) {
		rows++
	}
	e.Int(rows)
	for i := 0; i < len(s.trust); {
		end := s.subjectEnd(i)
		e.Int64(int64(s.trust[i].Subject))
		e.Int(end - i)
		for ; i < end; i++ {
			e.Int64(int64(s.trust[i].Observer))
			e.Float64(s.trust[i].Alpha)
			e.Float64(s.trust[i].Beta)
		}
	}

	rows = 0
	for i := 0; i < len(s.adds); i = s.cellEnd(i) {
		rows++
	}
	e.Int(rows)
	for i := 0; i < len(s.adds); {
		end := s.cellEnd(i)
		e.Int64(int64(s.adds[i].Cell.X))
		e.Int64(int64(s.adds[i].Cell.Y))
		e.Int(end - i)
		for ; i < end; i++ {
			e.Int64(int64(s.adds[i].Tag.Actor))
			e.Uint64(s.adds[i].Tag.Seq)
		}
	}

	e.Int(len(s.removes))
	for _, t := range s.removes {
		e.Int64(int64(t.Actor))
		e.Uint64(t.Seq)
	}
}

// Decode reconstructs a replica from Encode's output; it accepts exactly
// the frames MergeEncoded does.
func Decode(data []byte) (*Picture, error) {
	f := frame{rest: data}
	head := f.next(headerBytes)
	p := &Picture{self: asset.ID(f.i32(head)), seq: le(head[8:])}
	if err := p.read(&f); err != nil {
		return nil, err
	}
	return p, nil
}

// MergeEncoded merges a serialized replica into p — the receive path for
// pictures carried as opaque payloads through a dissemination overlay
// (e.g. the sharded mesh, whose frames must stay closed over per-node
// state and therefore ship bytes, not pointers). The bytes are a peer's
// and may be hostile: they are decoded and checked into scratch first and
// joined only if the whole frame is canonical — what some replica's
// Encode emits: accepting x implies Decode(x).Encode() == x. On error p
// is untouched; no frame costs more memory than a few times its length.
func (p *Picture) MergeEncoded(data []byte) error {
	f := frame{rest: data}
	f.i32(f.next(headerBytes)) // the sender's identity and tag sequence are not replicated state: only the ID's form is checked
	in := scratch.Get().(*state)
	err := in.read(&f)
	if err == nil {
		p.join(in, false)
	}
	scratch.Put(in)
	return err
}

// scratch lends out the runs a received frame is decoded into. They grow
// to the largest frame seen and are reused, so a steady-state merge
// allocates only when the replica grows; a pool, not a set per replica,
// keeps them as few as the goroutines merging and warm in their caches.
var scratch = sync.Pool{New: func() any { return new(state) }}

// frame is a cursor over a peer's bytes that remembers the first way they
// depart from what Encode writes. It reads a whole fixed-width record (or
// row header) at a time; the scalars inside are checkpoint's — 8-byte
// little-endian words, one-byte flags — at the offsets write puts them.
type frame struct {
	rest []byte // not yet read
	bad  error
}

// must records fault against the frame unless ok.
func (f *frame) must(ok bool, fault string) {
	if !ok && f.bad == nil {
		f.bad = errors.New(fault)
	}
}

// zeroRecord is what next hands out once the frame is at fault.
var zeroRecord [trackBytes]byte

// next returns the next n <= trackBytes bytes.
func (f *frame) next(n int) []byte {
	f.must(n <= len(f.rest), "truncated")
	if f.bad != nil {
		return zeroRecord[:n]
	}
	b := f.rest[:n]
	f.rest = f.rest[n:]
	return b
}

func le(b []byte) uint64   { return binary.LittleEndian.Uint64(b) }
func f64(b []byte) float64 { return math.Float64frombits(le(b)) }

// i32 reads an ID or coordinate: Encode widens them to 8 bytes, so a
// value outside int32 is one no replica wrote.
func (f *frame) i32(b []byte) int32 {
	v := int64(le(b))
	f.must(v == int64(int32(v)), "an ID or coordinate overflows int32")
	return int32(v)
}

// count reads a record (or row) count and bounds it by the bytes left.
func (f *frame) count(width int) int {
	n := int64(le(f.next(8)))
	if n < 0 || n > int64(len(f.rest)/width) {
		f.must(false, "a count exceeds the bytes left")
		return 0
	}
	return int(n)
}

// evidence reads one evidence component, which a replica holds only as
// +0 or above: the bit patterns up to +Inf's.
func (f *frame) evidence(b []byte) float64 {
	f.must(le(b) <= math.Float64bits(math.Inf(1)), "evidence is negative or NaN")
	return f64(b)
}

func (f *frame) tag(b []byte) tag { return tag{Actor: asset.ID(f.i32(b)), Seq: le(b[8:])} }

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

	s.adds = s.adds[:0]
	for rows := f.count(cellRow); rows > 0 && f.bad == nil; rows-- {
		b := f.next(16)
		r := coverAdd{Cell: Cell{X: f.i32(b), Y: f.i32(b[8:])}}
		k := len(s.adds)
		f.must(k == 0 || cmpCell(s.adds[k-1].Cell, r.Cell) < 0, "coverage cells out of order")
		n := f.count(tagBytes)
		f.must(n > 0, "a coverage cell has no tag")
		for ; n > 0 && f.bad == nil; n-- {
			r.Tag = f.tag(f.next(tagBytes))
			f.must(len(s.adds) == k || cmpTag(&s.adds[len(s.adds)-1].Tag, &r.Tag) < 0, "coverage tags out of order")
			s.adds = append(s.adds, r)
		}
	}

	s.removes = s.removes[:0]
	for n := f.count(tagBytes); n > 0 && f.bad == nil; n-- {
		t := f.tag(f.next(tagBytes))
		k := len(s.removes)
		f.must(k == 0 || cmpTag(&s.removes[k-1], &t) < 0, "tombstones out of order")
		s.removes = append(s.removes, t)
	}

	f.must(len(f.rest) == 0, "bytes after the last section")
	if f.bad != nil {
		return fmt.Errorf("cop: decode: frame is not canonical: %w", f.bad)
	}
	return nil
}
