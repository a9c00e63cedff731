package cop

import (
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// randomPicture builds a replica with seeded-random tracks, trust
// evidence, and coverage churn, so the algebraic tests run over many
// shapes of state.
func randomPicture(seed int64, self asset.ID) *Picture {
	rng := sim.NewRNG(seed)
	p := NewPicture(self)
	for i := 0; i < 3+rng.Intn(5); i++ {
		p.ObserveTrack(i, TrackFix{
			Pos:       geo.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)},
			Vel:       geo.Vec{DX: rng.Uniform(-5, 5), DY: rng.Uniform(-5, 5)},
			Hits:      1 + rng.Intn(9),
			Confirmed: rng.Bool(0.5),
		}, time.Duration(rng.Intn(100))*time.Second)
	}
	for i := 0; i < 2+rng.Intn(4); i++ {
		p.ObserveTrust(asset.ID(rng.Intn(20)), rng.Uniform(0, 10), rng.Uniform(0, 10))
	}
	for i := 0; i < 4+rng.Intn(6); i++ {
		c := Cell{X: int32(rng.Intn(5)), Y: int32(rng.Intn(5))}
		p.Cover(c)
		if rng.Bool(0.3) {
			uncover(p, c)
		}
	}
	return p
}

// uncover tombstones every live tag p has observed for c, the
// observed-remove a peer's frame can carry.
func uncover(p *Picture, c Cell) { joinRun(&p.removes, p.liveTags(c), cmpTag, nil, false) }

// trackFix returns the replicated fix for key, if present.
func trackFix(p *Picture, key TrackKey) (TrackFix, bool) {
	for _, r := range p.tracks {
		if r.Key == key {
			return r.Fix, true
		}
	}
	return TrackFix{}, false
}

// trustOf sums the replicated evidence about subject across observers.
func trustOf(p *Picture, subject asset.ID) Evidence {
	var total Evidence
	for _, r := range p.trust {
		if r.Subject == subject {
			total.Alpha += r.Alpha
			total.Beta += r.Beta
		}
	}
	return total
}

func mergeOf(ps ...*Picture) *Picture {
	out := NewPicture(0)
	for _, p := range ps {
		out.Merge(p)
	}
	return out
}

func TestMergeCommutative(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := randomPicture(seed, 1)
		b := randomPicture(seed+100, 2)
		ab := mergeOf(a, b)
		ba := mergeOf(b, a)
		if ab.Digest() != ba.Digest() {
			t.Fatalf("seed %d: merge not commutative", seed)
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := randomPicture(seed, 1)
		b := randomPicture(seed+100, 2)
		c := randomPicture(seed+200, 3)
		left := mergeOf(mergeOf(a, b), c)
		right := mergeOf(a, mergeOf(b, c))
		if left.Digest() != right.Digest() {
			t.Fatalf("seed %d: merge not associative", seed)
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := randomPicture(seed, 1)
		b := randomPicture(seed+100, 2)
		once := mergeOf(a, b)
		thrice := mergeOf(a, b, b, a, b)
		if once.Digest() != thrice.Digest() {
			t.Fatalf("seed %d: merge not idempotent", seed)
		}
	}
}

func TestMergeDominatesInputs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := randomPicture(seed, 1)
		b := randomPicture(seed+100, 2)
		m := mergeOf(a, b)
		if !m.Dominates(a) || !m.Dominates(b) {
			t.Fatalf("seed %d: merge does not dominate its inputs", seed)
		}
		if !m.Dominates(m) {
			t.Fatalf("seed %d: dominance not reflexive", seed)
		}
	}
}

func TestLWWNewerStampWins(t *testing.T) {
	p := NewPicture(1)
	p.ObserveTrack(0, TrackFix{Hits: 1}, 10*time.Second)
	p.ObserveTrack(0, TrackFix{Hits: 5}, 20*time.Second)
	// A stale write must not regress the register.
	p.ObserveTrack(0, TrackFix{Hits: 99}, 15*time.Second)
	fix, ok := trackFix(p, TrackKey{Actor: 1, ID: 0})
	if !ok || fix.Hits != 5 {
		t.Errorf("register = %+v ok=%v, want Hits=5", fix, ok)
	}

	// Across replicas: the newer stamp wins no matter the merge order.
	q := NewPicture(2)
	q.ObserveTrack(0, TrackFix{Hits: 7}, 30*time.Second)
	p.Merge(q)
	if fix, _ := trackFix(p, TrackKey{Actor: 2, ID: 0}); fix.Hits != 7 {
		t.Errorf("remote register lost: %+v", fix)
	}
}

func TestLWWStampTiebreakByActor(t *testing.T) {
	a, b := NewPicture(1), NewPicture(2)
	a.ObserveTrack(0, TrackFix{Hits: 1}, 10*time.Second)
	b.ObserveTrack(0, TrackFix{Hits: 2}, 10*time.Second)
	// Distinct actors never collide on TrackKey, but stamps at the same
	// instant must still order deterministically for Dominates.
	sa := Stamp{T: 10 * time.Second, Actor: 1}
	sb := Stamp{T: 10 * time.Second, Actor: 2}
	if !sb.After(sa) || sa.After(sb) {
		t.Error("equal-time stamps must tiebreak by actor ID")
	}
	if sa.After(sa) {
		t.Error("a stamp must not supersede itself")
	}
}

func TestTrustEvidenceGrowOnly(t *testing.T) {
	p := NewPicture(1)
	p.ObserveTrust(7, 4, 1)
	p.ObserveTrust(7, 2, 3) // alpha regression ignored, beta grows
	e := trustOf(p, 7)
	if e.Alpha != 4 || e.Beta != 3 {
		t.Errorf("evidence = %+v, want {4 3}", e)
	}

	q := NewPicture(2)
	q.ObserveTrust(7, 10, 0)
	p.Merge(q)
	e = trustOf(p, 7)
	if e.Alpha != 14 || e.Beta != 3 {
		t.Errorf("summed evidence = %+v, want {14 3}", e)
	}
}

func TestCoverageObservedRemove(t *testing.T) {
	cell := Cell{X: 3, Y: 4}
	a, b := NewPicture(1), NewPicture(2)
	a.Cover(cell)
	b.Merge(a)
	if !b.Covered(cell) {
		t.Fatal("merge lost coverage")
	}
	// Concurrently: A re-covers (a new tag B has not seen) while B
	// uncovers based on what it observed.
	a.Cover(cell)
	uncover(b, cell)
	if b.Covered(cell) {
		t.Fatal("uncover failed locally")
	}
	a.Merge(b)
	b.Merge(a)
	// Observed-remove semantics: the unseen concurrent Cover survives.
	if !a.Covered(cell) || !b.Covered(cell) {
		t.Error("concurrent cover must survive an observed remove")
	}
	if a.Digest() != b.Digest() {
		t.Error("replicas diverged after symmetric merge")
	}
}

func TestCoverageUncoverAllSeen(t *testing.T) {
	p := NewPicture(1)
	c := Cell{X: 0, Y: 0}
	p.Cover(c)
	p.Cover(c)
	uncover(p, c)
	if p.Covered(c) {
		t.Error("uncover must tombstone every observed tag")
	}
	if cells := p.CoveredCells(); len(cells) != 0 {
		t.Errorf("covered cells = %v, want none", cells)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := randomPicture(seed, 3)
		q, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if p.Digest() != q.Digest() {
			t.Fatalf("seed %d: roundtrip changed state", seed)
		}
		if q.Self() != p.Self() {
			t.Fatalf("seed %d: owner lost in roundtrip", seed)
		}
		// The decoded replica must keep allocating fresh tags.
		q.Cover(Cell{X: 9, Y: 9})
		if !q.Covered(Cell{X: 9, Y: 9}) {
			t.Fatalf("seed %d: decoded replica cannot make progress", seed)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := randomPicture(5, 1)
	data := p.Encode()
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated decode should fail")
	}
}

func TestDigestOrderInsensitive(t *testing.T) {
	// The same logical state reached through different op interleavings
	// must encode identically.
	build := func(order []int) *Picture {
		p := NewPicture(1)
		for _, i := range order {
			switch i {
			case 0:
				p.ObserveTrust(4, 2, 1)
			case 1:
				p.ObserveTrack(1, TrackFix{Hits: 3}, 5*time.Second)
			case 2:
				p.ObserveTrust(9, 1, 1)
			}
		}
		return p
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	if a.Digest() != b.Digest() {
		t.Error("digest depends on operation order")
	}
}

func TestDominatesDetectsRegression(t *testing.T) {
	a := randomPicture(9, 1)
	b := a.Clone()
	b.ObserveTrust(99, 1, 0)
	if a.Dominates(b) {
		t.Error("older replica must not dominate a newer one")
	}
	if !b.Dominates(a) {
		t.Error("a superset replica must dominate its past")
	}
}

func TestCountsAndAccessors(t *testing.T) {
	p := NewPicture(1)
	p.ObserveTrack(0, TrackFix{Hits: 3, Confirmed: true}, time.Second)
	p.ObserveTrust(2, 1, 1)
	p.Cover(Cell{X: 1, Y: 1})
	p.Cover(Cell{X: 2, Y: 2})
	uncover(p, Cell{X: 2, Y: 2})
	tracks, pairs, covered, tombs := p.Counts()
	if tracks != 1 || pairs != 1 || covered != 1 || tombs != 1 {
		t.Errorf("counts = %d %d %d %d, want 1 1 1 1", tracks, pairs, covered, tombs)
	}
}
