package verify

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"iobt/internal/checkpoint"
)

// TestCheckpointSectionLaws holds every section of a live mission's
// checkpoint to the codec contract, through the coordinator that warm
// failover and journal recovery use:
//   - the section with one byte appended is refused, and
//     RestoreCheckpoint's error names the section;
//   - restored into a fresh mission in a different state, the section
//     snapshots back to the same bytes, so a field Restore reads but
//     does not apply shows up as a difference.
//
// The fresh mission is the same scenario at time zero with its post
// destroyed: an empty ledger and track picture, and a runtime in a
// different health state from the live one. The ARQ window is exempt
// from the second law, because its Restore applies the snapshot to the
// live window by design; the end-of-section check covers its codec.
func TestCheckpointSectionLaws(t *testing.T) {
	// Seed 8 ends healthy with 34 members, 6 ledger records, 3 tracks
	// and 2 exchanges in flight.
	s := Scenario{Seed: 8, Assets: 300, Size: 2000, Terrain: "urban", Command: "hierarchy",
		Reliable: true, Track: true, Checkpoint: 15 * time.Second, Rate: 60, Horizon: 90 * time.Second}
	w, live, _, err := BuildMission(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	defer live.Stop()
	if err := w.Run(s.Horizon); err != nil {
		t.Fatal(err)
	}
	ck := live.Checkpoints().Capture()

	fw, fresh, _, err := BuildMission(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Stop()
	defer fresh.Stop()
	fresh.CrashPost()
	if fresh.Health() == live.Health() {
		t.Fatalf("fresh and live runtimes are both %s: the runtime law would not see health", live.Health())
	}
	coord := fresh.Checkpoints()

	for _, sec := range []struct {
		name      string
		sameBytes bool
	}{
		{"runtime", true},
		{"trust", true},
		{"track", true},
		{"arq", false},
	} {
		t.Run(sec.name, func(t *testing.T) {
			data := ck.Section(sec.name)
			if data == nil {
				t.Fatalf("live checkpoint has no %s section", sec.name)
			}
			only := func(name string) bool { return name == sec.name }

			long := &checkpoint.Checkpoint{Seq: ck.Seq, At: ck.At,
				Sections: []checkpoint.Section{{Name: sec.name, Data: append(bytes.Clone(data), 0)}}}
			err := coord.RestoreCheckpoint(long, only)
			if err == nil || !strings.Contains(err.Error(), "restore "+sec.name+":") {
				t.Fatalf("section with a byte appended: RestoreCheckpoint = %v, want an error naming %s", err, sec.name)
			}

			if err := coord.RestoreCheckpoint(ck, only); err != nil {
				t.Fatalf("live section refused: %v", err)
			}
			if got := coord.Capture().Section(sec.name); sec.sameBytes && !bytes.Equal(got, data) {
				t.Fatalf("restored section snapshots to different bytes:\n live %x\n back %x", data, got)
			}
		})
	}
}
