package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The checkpoint wire format is a deliberately tiny deterministic
// binary encoding: fixed little-endian scalars and length-prefixed
// strings, no maps, no reflection. Determinism matters more than
// compactness here — the replay verifier compares checkpoint digests
// across runs, so the same state must always encode to the same bytes.

// Encoder appends values to a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the encoded size so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow reserves room for n more bytes, for a caller that knows its
// encoded size and would rather not pay for the buffer doubling up to it.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Uint64 appends a fixed 8-byte unsigned integer.
func (e *Encoder) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int64 appends a fixed 8-byte signed integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Int appends an int as 8 bytes.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Float64 appends an IEEE-754 double bit pattern.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Decoder reads values back in the order they were encoded. The first
// read past the end of the buffer sets a sticky error; callers check
// Err once after decoding a section.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the sticky decode error, nil if all reads were in bounds.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish ends a section: it returns the sticky decode error, or an
// error when bytes are left unread. Every Restore ends with it, so a
// field that Snapshot encodes and Restore never reads fails the restore
// instead of being dropped.
func (d *Decoder) Finish() error {
	if d.err == nil && d.Remaining() != 0 {
		d.err = fmt.Errorf("checkpoint: %d unread bytes at offset %d of %d", d.Remaining(), d.off, len(d.buf))
	}
	return d.err
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	// Compare against what is left: d.off+n wraps for a hostile n.
	if n < 0 || n > len(d.buf)-d.off {
		d.err = fmt.Errorf("checkpoint: truncated section (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads a fixed 8-byte unsigned integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed 8-byte signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads an int encoded as 8 bytes.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Count vets n, a count just read, of entries that each take at least
// minSize encoded bytes. A count that is negative or claims more entries
// than the unread bytes can hold sets the sticky error and yields 0, so
// a caller may size a table from the result without trusting the input.
func (d *Decoder) Count(n, minSize int) int {
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.Remaining()/minSize {
		d.err = fmt.Errorf("checkpoint: count %d of %d-byte entries exceeds the %d bytes left at offset %d", n, minSize, d.Remaining(), d.off)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Int()
	if d.err != nil {
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
