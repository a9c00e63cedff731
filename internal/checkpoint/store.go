package checkpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"
)

// This file is the durability layer under the coordinator: an
// append-only journal file of checkpoint records, one file per
// mission. The mission service persists every periodic cut here so a
// crashed worker can be restarted from its latest snapshot instead of
// from nothing. The format is built for crash consistency: a process
// can die mid-append (torn write) or scribble on the tail, and
// recovery must still yield every record written before the damage —
// never an error for a recoverable file, never a silently accepted
// corrupt record.
//
// Layout:
//
//	header:  8-byte magic "iobtckpt" + 8-byte little-endian version
//	record:  8-byte payload length + 8-byte FNV-1a checksum + payload
//
// The payload is the deterministic codec encoding of one Record. A
// scan stops at the first incomplete or checksum-failing record; what
// precedes it is the durable prefix, and OpenStore truncates the torn
// tail so subsequent appends extend a clean file.

// storeMagic identifies a checkpoint journal file.
const storeMagic = "iobtckpt"

// StoreVersion is the journal file format version.
const StoreVersion = 1

// ErrNotStore marks a file that does not carry the journal magic — the
// store refuses to recover (or truncate!) a file it does not own.
var ErrNotStore = errors.New("checkpoint: not a checkpoint journal file")

// Record is one durable checkpoint entry: the cut itself plus the
// replay anchor needed to re-reach the cut deterministically.
type Record struct {
	// Seq is the checkpoint sequence number (Checkpoint.Seq).
	Seq int
	// At is the virtual time of the cut.
	At time.Duration
	// Processed is the engine's executed-event count at the cut: a
	// recovering worker replays the mission until exactly this many
	// events have run, which lands it on the cut instant even when
	// several events share the cut's timestamp.
	Processed uint64
	// Checkpoint holds the captured sections.
	Checkpoint *Checkpoint
}

// encodeRecord serializes one record payload with the deterministic
// codec.
func encodeRecord(rec Record) []byte {
	e := NewEncoder()
	e.Int(rec.Seq)
	e.Int64(int64(rec.At))
	e.Uint64(rec.Processed)
	n := 0
	if rec.Checkpoint != nil {
		n = len(rec.Checkpoint.Sections)
	}
	e.Int(n)
	for i := 0; i < n; i++ {
		s := rec.Checkpoint.Sections[i]
		e.String(s.Name)
		e.String(string(s.Data))
	}
	return e.Bytes()
}

// decodeRecord is encodeRecord's inverse.
func decodeRecord(payload []byte) (Record, error) {
	d := NewDecoder(payload)
	var rec Record
	rec.Seq = d.Int()
	rec.At = time.Duration(d.Int64())
	rec.Processed = d.Uint64()
	n := d.Count(d.Int(), 16) // two length prefixes per section
	if d.Err() != nil {
		return rec, d.Err()
	}
	ck := &Checkpoint{Seq: rec.Seq, At: rec.At}
	for i := 0; i < n; i++ {
		name := d.String()
		data := d.String()
		if d.Err() != nil {
			return rec, d.Err()
		}
		ck.Sections = append(ck.Sections, Section{Name: name, Data: []byte(data)})
	}
	if d.Remaining() != 0 {
		return rec, fmt.Errorf("checkpoint: %d trailing bytes after record", d.Remaining())
	}
	rec.Checkpoint = ck
	return rec, nil
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return h.Sum64()
}

// scanRecords reads the record stream after the header of a file of
// size bytes, returning every complete record and the byte offset of the
// clean prefix end. Damage — a torn header or payload, a checksum
// mismatch, an undecodable payload — ends the scan at the last clean
// offset rather than erroring: that is exactly the crash-recovery
// contract.
func scanRecords(r io.Reader, size int64) ([]Record, int64) {
	var recs []Record
	offset := int64(len(storeMagic) + 8)
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, offset // clean EOF or torn record header
		}
		length := int64(leUint64(hdr[0:8]))
		sum := leUint64(hdr[8:16])
		// A length past the end of the file is tail damage, not a record:
		// allocating it first would let a 32-byte torn header cost a
		// gigabyte.
		if length <= 0 || length > size-offset-16 {
			return recs, offset
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, offset // torn payload
		}
		if checksum(payload) != sum {
			return recs, offset // corrupt record
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, offset // checksummed but undecodable: treat as damage
		}
		recs = append(recs, rec)
		offset += 16 + length
	}
}

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func leBytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// Store is an open checkpoint journal file positioned for append.
type Store struct {
	f *os.File
}

// OpenStore opens (creating if needed) the journal file at path,
// recovers every complete record, truncates any torn or corrupt tail,
// and returns the store positioned for append together with the
// recovered records. A file that exists but does not carry the journal
// magic is refused with ErrNotStore — recovery must never truncate a
// file it does not own.
func OpenStore(path string) (*Store, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	recs, cleanEnd, err := recoverOpen(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// A fresh (or torn-header) file gets a clean header; an existing one
	// is truncated back to its durable prefix.
	if cleanEnd == 0 {
		if err := writeHeader(f); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	} else if err := truncateTo(f, cleanEnd); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return &Store{f: f}, recs, nil
}

// RecoverStore reads the durable record prefix of the journal file at
// path without modifying it. A missing file recovers to zero records.
func RecoverStore(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	defer f.Close()
	recs, _, err := recoverOpen(f)
	return recs, err
}

// recoverOpen validates the header and scans records. cleanEnd == 0
// signals "no usable header" (empty or torn-header file) — the caller
// may rewrite it. A wrong magic is an error, not a rewrite.
func recoverOpen(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var hdr [len(storeMagic) + 8]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil {
		if n == 0 {
			return nil, 0, nil // empty: fresh file
		}
		// A torn header holds no records by definition: the header is the
		// first thing ever written. Rewrite it — unless the fragment
		// already disagrees with the magic, in which case this is not our
		// file.
		if string(hdr[:min(n, len(storeMagic))]) != storeMagic[:min(n, len(storeMagic))] {
			return nil, 0, ErrNotStore
		}
		return nil, 0, nil
	}
	if string(hdr[:len(storeMagic)]) != storeMagic {
		return nil, 0, ErrNotStore
	}
	if v := leUint64(hdr[len(storeMagic):]); v != StoreVersion {
		return nil, 0, fmt.Errorf("checkpoint: journal file version %d (this build reads %d)", v, StoreVersion)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: stat store: %w", err)
	}
	recs, cleanEnd := scanRecords(f, fi.Size())
	return recs, cleanEnd, nil
}

func writeHeader(f *os.File) error {
	if err := truncateTo(f, 0); err != nil {
		return err
	}
	hdr := append([]byte(storeMagic), leBytes(StoreVersion)...)
	if _, err := f.Write(hdr); err != nil {
		return fmt.Errorf("checkpoint: write store header: %w", err)
	}
	return nil
}

func truncateTo(f *os.File, off int64) error {
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("checkpoint: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// Append writes one record to the journal file. The write is framed
// with a length and checksum so a crash mid-append costs at most this
// record on recovery.
func (s *Store) Append(rec Record) error {
	payload := encodeRecord(rec)
	buf := make([]byte, 0, 16+len(payload))
	buf = append(buf, leBytes(uint64(len(payload)))...)
	buf = append(buf, leBytes(checksum(payload))...)
	buf = append(buf, payload...)
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("checkpoint: append record: %w", err)
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (s *Store) Sync() error { return s.f.Sync() }

// Close closes the journal file.
func (s *Store) Close() error { return s.f.Close() }
