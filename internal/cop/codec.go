package cop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
)

// Wire widths of the replica-local header (the owner), of one record, and
// of a trust row header plus its first record (no row is empty). The walk
// bounds every count by the bytes left divided by these, so a peer cannot
// make it reserve more than it sent.
const (
	headerBytes = 8
	trackBytes  = 9*8 + 1
	trustBytes  = 3 * 8
	cellBytes   = 2 * 8
	trustRow    = 2*8 + trustBytes
)

// Encode serializes the replica deterministically: the runs are already
// in key order, so equal states produce equal bytes and Digest can stand
// in for deep comparison.
func (p *Picture) Encode() []byte {
	w := wire{buf: make([]byte, 0, headerBytes+p.wireSize())}
	w.word(uint64(p.self))
	p.write(&w)
	return w.buf
}

// Digest hashes the deterministic encoding of the replicated state —
// identity fields excluded, so two converged replicas with different
// owners digest identically. Equal digests mean equal replicated state.
// The hash is 64-bit FNV-1a, folded in as write emits each word, so no
// encoding is built.
func (p *Picture) Digest() uint64 {
	w := wire{digest: true, sum: fnvOffset}
	p.write(&w)
	return w.sum
}

// wire is where write puts the encoding: checkpoint's scalars (8-byte
// little-endian words, one-byte flags) appended to buf or, with digest
// set, folded into an FNV-1a sum instead, byte by byte as hash/fnv would.
type wire struct {
	buf    []byte
	digest bool
	sum    uint64
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// word emits v as 8 little-endian bytes.
func (w *wire) word(v uint64) {
	if !w.digest {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
		return
	}
	h := w.sum
	for i := 0; i < 64; i += 8 {
		h = (h ^ v>>i&0xff) * fnvPrime
	}
	w.sum = h
}

// flag emits v as one byte, 0 or 1.
func (w *wire) flag(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	if !w.digest {
		w.buf = append(w.buf, b)
		return
	}
	w.sum = (w.sum ^ uint64(b)) * fnvPrime
}

// wireSize is the length of what write emits, so that Encode allocates
// its buffer once and returns no slack.
func (s *state) wireSize() int {
	n := 3*8 + len(s.tracks)*trackBytes + len(s.trust)*trustBytes + len(s.cells)*cellBytes
	for i := 0; i < len(s.trust); i = s.subjectEnd(i) {
		n += trustRow - trustBytes
	}
	return n
}

// write dumps the replicated state. Trust is written as rows: the subject
// once, then its observers.
func (s *state) write(w *wire) {
	w.word(uint64(len(s.tracks)))
	for i := range s.tracks {
		r := &s.tracks[i]
		w.word(uint64(r.Key.Actor))
		w.word(uint64(r.Key.ID))
		w.word(math.Float64bits(r.Fix.Pos.X))
		w.word(math.Float64bits(r.Fix.Pos.Y))
		w.word(math.Float64bits(r.Fix.Vel.DX))
		w.word(math.Float64bits(r.Fix.Vel.DY))
		w.word(uint64(r.Fix.Hits))
		w.flag(r.Fix.Confirmed)
		w.word(uint64(r.Stamp.T))
		w.word(uint64(r.Stamp.Actor))
	}

	rows := 0
	for i := 0; i < len(s.trust); i = s.subjectEnd(i) {
		rows++
	}
	w.word(uint64(rows))
	for i := 0; i < len(s.trust); {
		end := s.subjectEnd(i)
		w.word(uint64(s.trust[i].Subject))
		w.word(uint64(end - i))
		for ; i < end; i++ {
			w.word(uint64(s.trust[i].Observer))
			w.word(math.Float64bits(s.trust[i].Alpha))
			w.word(math.Float64bits(s.trust[i].Beta))
		}
	}

	w.word(uint64(len(s.cells)))
	for _, c := range s.cells {
		w.word(uint64(c.X))
		w.word(uint64(c.Y))
	}
}

// MergeEncoded merges a serialized replica into p — the receive path for
// pictures carried as opaque payloads through a dissemination overlay
// (e.g. the sharded mesh, whose frames must stay closed over per-node
// state and therefore ship bytes, not pointers). The bytes are a peer's
// and may be hostile: it accepts exactly the frames some replica's
// Encode can emit (walk lists the rules), and joins what the frame adds
// only once all of it has passed. On error p is untouched; no frame
// costs more memory than a few times its length.
func (p *Picture) MergeEncoded(data []byte) error {
	f := frame{rest: data}
	f.i32(f.next(headerBytes)) // the sender's identity is not replicated state: only its form is checked
	in := scratch.Get().(*state)
	f.walk(&p.state, in)
	if f.bad == nil {
		p.join(in, false)
	}
	scratch.Put(in)
	if f.bad != nil {
		return fmt.Errorf("cop: decode: frame is not canonical: %w", f.bad)
	}
	return nil
}

// scratch lends out the runs a received frame's new records are decoded
// into. They grow to the most a frame has added and are reused, so a
// steady-state merge allocates only when the replica grows; a pool, not
// a set per replica, keeps them as few as the goroutines merging and
// warm in their caches.
var scratch = sync.Pool{New: func() any { return new(state) }}

// walk checks the rest of f in one pass, in step with held's three runs,
// and loads into in (overwriting it, reusing its storage) only the
// records held does not dominate: a key held lacks, a track with a newer
// stamp, evidence larger in a component (the rules foldTrack and
// foldTrust apply). Each held run is passed once, a cursor (at) kept at
// its first key not below the frame's. A dominated record is read no
// further than its key and stamp (evidence for trust). Nothing is joined
// here, so every record is judged against held as it was, as joining the
// whole frame would judge it. The checks are what makes a frame
// canonical: every count covered by the bytes behind it, keys strictly
// ascending, no empty row, every scalar as Encode writes it, nothing left
// over. On the first fault f.bad is set and the walk stops.
//
//iobt:hot
func (f *frame) walk(held, in *state) {
	in.tracks = in.tracks[:0]
	var r trackReg
	at := 0
	_, b := f.row(0, trackBytes)
	for first := true; len(b) > 0 && f.bad == nil; b, first = b[trackBytes:], false {
		rec := (*[trackBytes]byte)(b)
		last := r.Key
		r.Key = TrackKey{Actor: asset.ID(f.i32(rec[:8])), ID: int(le(rec[8:16]))}
		r.Stamp = Stamp{T: time.Duration(le(rec[57:65])), Actor: asset.ID(f.i32(rec[65:]))}
		f.must(rec[56] <= 1, "a flag byte is not 0 or 1")
		f.must(first || cmpKey(last, r.Key) < 0, "tracks out of order")
		// Equality first: a frame mostly repeats what is held.
		for at < len(held.tracks) && held.tracks[at].Key != r.Key && cmpKey(held.tracks[at].Key, r.Key) < 0 {
			at++
		}
		if at < len(held.tracks) && held.tracks[at].Key == r.Key && !r.Stamp.After(held.tracks[at].Stamp) {
			continue
		}
		r.Fix = TrackFix{
			Pos: geo.Point{X: f64(rec[16:24]), Y: f64(rec[24:32])}, Vel: geo.Vec{DX: f64(rec[32:40]), DY: f64(rec[40:48])},
			Hits: int(le(rec[48:56])), Confirmed: rec[56] == 1,
		}
		in.tracks = append(in.tracks, r)
	}

	in.trust = in.trust[:0]
	var t trustReg
	at = 0
	for rows, row := f.count(trustRow), 0; row < rows && f.bad == nil; row++ {
		h, b := f.row(8, trustBytes)
		last := t.Subject
		t.Subject = asset.ID(f.i32(h))
		f.must(row == 0 || last < t.Subject, "trust subjects out of order")
		f.must(len(b) > 0, "a trust subject has no observer")
		for first := true; len(b) > 0 && f.bad == nil; b, first = b[trustBytes:], false {
			rec := (*[trustBytes]byte)(b)
			last := t.Observer
			t.Observer, t.Alpha, t.Beta = asset.ID(f.i32(rec[:8])), f.evidence(rec[8:16]), f.evidence(rec[16:])
			f.must(first || last < t.Observer, "trust observers out of order")
			for at < len(held.trust) && cmpTrust(&held.trust[at], &t) < 0 {
				at++
			}
			if at < len(held.trust) && cmpTrust(&held.trust[at], &t) == 0 && held.trust[at].join(t.Evidence) == held.trust[at].Evidence {
				continue
			}
			in.trust = append(in.trust, t)
		}
	}

	in.cells = in.cells[:0]
	var c Cell
	at = 0
	_, b = f.row(0, cellBytes)
	for first := true; len(b) > 0 && f.bad == nil; b, first = b[cellBytes:], false {
		last := c
		c = Cell{X: f.i32(b[:8]), Y: f.i32(b[8:cellBytes])}
		f.must(first || cmpCell(&last, &c) < 0, "coverage cells out of order")
		for at < len(held.cells) && held.cells[at] != c && cmpCell(&held.cells[at], &c) < 0 {
			at++
		}
		if at < len(held.cells) && held.cells[at] == c {
			continue
		}
		in.cells = append(in.cells, c)
	}

	f.must(len(f.rest) == 0, "bytes after the last section")
}

// frame is a cursor over a peer's bytes that remembers the first way they
// depart from what Encode writes. It reads whole fixed-width records (or
// row headers); the scalars inside are the ones wire writes, at the
// offsets write puts them.
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

// zeroRecord is what next (and row, for a header) hands out once the
// frame is at fault.
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

// row reads a row header of head bytes, a record count and that many
// width-byte records, bounding the count by the bytes left as count does
// (head 0: a section's count and its records). At fault the header is
// zeroRecord's and there are no records.
func (f *frame) row(head, width int) (h, records []byte) {
	if len(f.rest) < head+8 {
		f.must(false, "truncated")
		return zeroRecord[:head], nil
	}
	h, n, rest := f.rest[:head], le(f.rest[head:]), f.rest[head+8:]
	// A negative count reads as one above 2^63. The bound multiplies where
	// count divides: row runs once per row, and a division by a width that
	// is not a constant costs more than the rest of the row header.
	if n > uint64(len(rest)) || n*uint64(width) > uint64(len(rest)) {
		f.must(false, "a count exceeds the bytes left")
		return zeroRecord[:head], nil
	}
	n *= uint64(width)
	f.rest = rest[n:]
	return h, rest[:n]
}

// evidence reads one evidence component, which a replica holds only as
// +0 or above: the bit patterns up to +Inf's.
func (f *frame) evidence(b []byte) float64 {
	f.must(le(b) <= math.Float64bits(math.Inf(1)), "evidence is negative or NaN")
	return f64(b)
}
