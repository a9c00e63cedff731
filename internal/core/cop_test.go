package core

import (
	"bytes"
	"testing"
	"time"

	"iobt/internal/cop"
	"iobt/internal/geo"
	"iobt/internal/track"
)

func copTestRuntime(t *testing.T, seed int64) (*World, *Runtime) {
	t.Helper()
	w := testWorld(t, seed)
	m := testMission(CommandHierarchy)
	m.TrustAudit = true // mission acts feed the ledger the picture folds
	r := NewRuntime(w, m)
	if err := r.Synthesize(); err != nil {
		w.Stop()
		t.Fatalf("synthesize: %v", err)
	}
	tr := track.NewTracker(track.Config{})
	r.AttachTracker(tr)
	if err := r.Start(); err != nil {
		w.Stop()
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { r.Stop(); w.Stop() })
	return w, r
}

func TestBuildPictureFoldsWorldState(t *testing.T) {
	w, r := copTestRuntime(t, 31)
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Feed the tracker a couple of detection batches so fixes exist.
	for i := 0; i < 4; i++ {
		r.Tracker().Observe(w.Eng.Now()+time.Duration(i)*time.Second,
			[]track.Detection{{Pos: geo.Point{X: 700, Y: 700}, Var: 4, Sensor: 1}})
	}

	p := cop.NewPicture(w.PickCommandPost())
	UpdatePicture(p, w, r)
	tracks, subjects, cells := p.Counts()
	if subjects == 0 {
		t.Error("no trust subjects folded from the ledger")
	}
	if tracks == 0 {
		t.Error("no track fixes folded from the tracker")
	}
	if cells == 0 {
		t.Error("no coverage cells folded from the composite")
	}

	// Idempotent at a fixed instant: folding again changes nothing.
	before := p.Digest()
	UpdatePicture(p, w, r)
	if p.Digest() != before {
		t.Error("re-fold at a fixed instant changed the picture")
	}

	// Monotone over time: the later picture dominates its clone.
	snap := p.Clone()
	if err := w.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	UpdatePicture(p, w, r)
	if !p.Dominates(snap) {
		t.Error("later fold does not dominate the earlier picture")
	}
}

func TestPictureReplicasConvergeByMerge(t *testing.T) {
	w, r := copTestRuntime(t, 32)
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	a := cop.NewPicture(1)
	UpdatePicture(a, w, r)
	b := cop.NewPicture(2)
	// b learns everything a knows over the wire: encode, then merge the
	// bytes — the exact path gossip payloads take.
	enc := a.Encode()
	if err := b.MergeEncoded(enc); err != nil {
		t.Fatalf("merge encoded: %v", err)
	}
	if a.Digest() != b.Digest() {
		t.Error("replicas diverged after merge of encoded state")
	}
	if !bytes.Equal(enc, a.Encode()) {
		t.Error("encoding not deterministic across calls")
	}
}

func TestCellAtQuantizes(t *testing.T) {
	if c := CellAt(geo.Point{X: 250, Y: 999}); c.X != 2 || c.Y != 9 {
		t.Errorf("CellAt = %+v", c)
	}
	if c := CellAt(geo.Point{X: -1, Y: 0}); c.X != -1 || c.Y != 0 {
		t.Errorf("negative CellAt = %+v", c)
	}
}
