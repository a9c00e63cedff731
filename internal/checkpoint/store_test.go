package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func testRecord(seq int) Record {
	return Record{
		Seq:       seq,
		At:        time.Duration(seq) * 10 * time.Second,
		Processed: uint64(seq * 1000),
		Checkpoint: &Checkpoint{
			Seq: seq,
			At:  time.Duration(seq) * 10 * time.Second,
			Sections: []Section{
				{Name: "runtime", Data: []byte{byte(seq), 1, 2, 3}},
				{Name: "trust", Data: []byte{byte(seq), 9, 8}},
			},
		},
	}
}

func writeStore(t *testing.T, path string, n int) {
	t.Helper()
	st, recs, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d records", len(recs))
	}
	for i := 1; i <= n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	writeStore(t, path, 3)

	recs, err := RecoverStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		want := testRecord(i + 1)
		if rec.Seq != want.Seq || rec.At != want.At || rec.Processed != want.Processed {
			t.Errorf("record %d header = %+v", i, rec)
		}
		if rec.Checkpoint.Digest() != want.Checkpoint.Digest() {
			t.Errorf("record %d digest mismatch", i)
		}
	}
}

func TestStoreRecoverMissingFile(t *testing.T) {
	recs, err := RecoverStore(filepath.Join(t.TempDir(), "absent.ckpt"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing file: recs=%d err=%v, want 0, nil", len(recs), err)
	}
}

// TestStoreTruncatedTail simulates a crash mid-append at every byte
// boundary inside the final record: recovery must always return the two
// complete records, never error, and never yield a third.
func TestStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	writeStore(t, full, 3)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Find where record 3 starts: recover the 2-record prefix length by
	// writing a 2-record file and measuring it.
	two := filepath.Join(dir, "two.ckpt")
	writeStore(t, two, 2)
	rawTwo, err := os.ReadFile(two)
	if err != nil {
		t.Fatal(err)
	}
	start := len(rawTwo)
	if start >= len(raw) {
		t.Fatal("3-record file not longer than 2-record file")
	}
	for cut := start; cut < len(raw); cut++ {
		torn := filepath.Join(dir, "torn.ckpt")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := RecoverStore(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2", cut, len(recs))
		}
	}
}

// TestStoreCorruptTail flips one byte in the final record's payload:
// the checksum must reject it and recovery must fall back to the last
// complete prefix.
func TestStoreCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	writeStore(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RecoverStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after tail corruption, want 2", len(recs))
	}
}

// TestStoreAppendAfterRecovery reopens a torn file: OpenStore must
// truncate the damage and appends must extend the clean prefix.
func TestStoreAppendAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	writeStore(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 5 bytes (mid-payload of record 3).
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	st, recs, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("reopen recovered %d records, want 2", len(recs))
	}
	if err := st.Append(testRecord(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = RecoverStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 4 {
		t.Fatalf("after truncate+append: %d records (last seq %d), want 3 with seq 4",
			len(recs), recs[len(recs)-1].Seq)
	}
}

func TestStoreEmptyAndTornHeader(t *testing.T) {
	dir := t.TempDir()
	// Empty file: usable as fresh.
	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, recs, err := OpenStore(empty)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty file: recs=%d err=%v", len(recs), err)
	}
	_ = st.Close()
	// Torn header (magic prefix only): rewritten as fresh.
	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, []byte(storeMagic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	st, recs, err = OpenStore(torn)
	if err != nil || len(recs) != 0 {
		t.Fatalf("torn header: recs=%d err=%v", len(recs), err)
	}
	_ = st.Close()
}

func TestStoreRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(foreign, []byte("this is not a checkpoint journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenStore(foreign); !errors.Is(err, ErrNotStore) {
		t.Fatalf("OpenStore(foreign) err = %v, want ErrNotStore", err)
	}
	if _, err := RecoverStore(foreign); !errors.Is(err, ErrNotStore) {
		t.Fatalf("RecoverStore(foreign) err = %v, want ErrNotStore", err)
	}
	// The foreign file must be untouched.
	raw, err := os.ReadFile(foreign)
	if err != nil || string(raw) != "this is not a checkpoint journal" {
		t.Fatalf("foreign file modified: %q err=%v", raw, err)
	}
}

func TestStoreVersionGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vnext.ckpt")
	hdr := append([]byte(storeMagic), leBytes(StoreVersion+1)...)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverStore(path); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestStoreSyncAndPath covers the durability flush: records appended
// and synced survive a reopen.
func TestStoreSyncAndPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	st, _, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// A synced record survives reopening without Close.
	recs, err := RecoverStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("after Sync: recovered %d records, want the synced one", len(recs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// hostileRecord is a record payload whose first section name claims
// math.MaxInt64 bytes, so an offset check written as off+n wraps.
func hostileRecord() []byte {
	e := NewEncoder()
	e.Int(1)
	e.Int64(0)
	e.Uint64(0)
	e.Int(1)
	e.Int64(math.MaxInt64) // Int's wire form, written as int64 so it builds on 32-bit hosts
	return e.Bytes()
}

// frameRecord frames payload the way Store.Append does.
func frameRecord(payload []byte) []byte {
	out := append(leBytes(uint64(len(payload))), leBytes(checksum(payload))...)
	return append(out, payload...)
}

// TestDecodeRecordHostileLength appends a checksummed record whose
// section length is math.MaxInt64: the checksum is not a MAC, so it
// reaches the decoder, which must refuse it as damage rather than panic
// and crash a restarting service.
func TestDecodeRecordHostileLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.ckpt")
	writeStore(t, path, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameRecord(hostileRecord())); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := RecoverStore(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recovered %d records, err %v; want the one clean record", len(recs), err)
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStoreClaimedLengthBeyondFile: a torn record header claiming just
// under 1 GiB of payload is tail damage. Recovery must say so from the
// file size, without allocating the claimed length first.
func TestStoreClaimedLengthBeyondFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "claim.ckpt")
	raw := append([]byte(storeMagic), leBytes(StoreVersion)...)
	raw = append(raw, leBytes(1<<30-1)...)
	raw = append(raw, leBytes(0)...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var err error
	grew := allocBytes(func() { recs, err = RecoverStore(path) })
	if err != nil || len(recs) != 0 {
		t.Fatalf("recovered %d records, err %v; want none", len(recs), err)
	}
	if grew >= 1<<20 {
		t.Fatalf("recovering a %d-byte file allocated %d bytes", len(raw), grew)
	}
}

// FuzzDecodeRecord holds the journal record decoder to the contract the
// picture decoder keeps: any input is refused or accepted without a
// panic, decoding allocates in proportion to the input, and an accepted
// record re-encodes to exactly its input.
func FuzzDecodeRecord(f *testing.F) {
	good := encodeRecord(testRecord(3))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(hostileRecord())
	f.Add(encodeRecord(Record{Seq: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		var err error
		// A fuzz worker's own goroutines allocate too, so one reading can
		// overstate; the least of three is the decoder's cost.
		grew := uint64(math.MaxUint64)
		for range 3 {
			grew = min(grew, allocBytes(func() { rec, err = decodeRecord(data) }))
		}
		// Each name and payload is copied twice (string, then []byte) and
		// the section slice grows by doubling; the slack covers the error.
		if limit := uint64(16*len(data) + 4096); grew > limit {
			t.Fatalf("allocated %d bytes for a %d-byte record, limit %d", grew, len(data), limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encodeRecord(rec), data) {
			t.Fatal("accepted record does not re-encode to itself")
		}
	})
}
