// Package cop replicates the common operational picture as a state-based
// CRDT: the track store is a set of last-writer-wins registers, trust
// evidence is a grow-only counter per (subject, observer), and the sensor
// coverage map is a grow-only set of grid cells. Merges are
// commutative, associative, and idempotent, so command posts converge on
// the same picture regardless of message ordering, duplication, or how
// long a partition kept them apart — the property the paper's §III
// "composing thousands of battle things" vision needs and that the
// gossip layer (internal/mesh) exploits: replicas exchange encoded
// pictures and merge, with no coordination and no ordering assumptions.
//
// A replica is stored the way it is encoded: three runs of fixed-size
// records kept strictly ascending by key. Every merge, local write and
// dominance check is one merge-join over those runs and Encode is a
// linear dump, so same-seed runs stay byte-identical.
package cop

import (
	"slices"
	"sort"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
)

// Stamp orders LWW writes: virtual time first, writer ID as tiebreak.
// Two stamps are equal only for the same writer at the same instant, in
// which case the values are identical by construction.
type Stamp struct {
	T     time.Duration
	Actor asset.ID
}

// After reports whether s strictly supersedes o.
func (s Stamp) After(o Stamp) bool {
	if s.T != o.T {
		return s.T > o.T
	}
	return s.Actor > o.Actor
}

// TrackKey names a replicated track: the reporting actor plus its local
// track ID. Different observers of the same target keep distinct entries;
// fusion across observers is a read-side concern.
type TrackKey struct {
	Actor asset.ID
	ID    int
}

// TrackFix is the replicated state of one track (the LWW register value).
type TrackFix struct {
	Pos       geo.Point
	Vel       geo.Vec
	Hits      int
	Confirmed bool
}

// Evidence is accumulated Beta-reputation evidence from one observer.
// Both components only grow, so pointwise max is the join. A replica
// holds only components >= +0: every pair starts from the zero pair and
// a NaN never wins a max.
type Evidence struct {
	Alpha, Beta float64
}

// max-merge of evidence pairs.
func (e Evidence) join(o Evidence) Evidence {
	if o.Alpha > e.Alpha {
		e.Alpha = o.Alpha
	}
	if o.Beta > e.Beta {
		e.Beta = o.Beta
	}
	return e
}

// Cell indexes the coverage grid.
type Cell struct {
	X, Y int32
}

// Picture is one replica of the common operational picture. It is not
// safe for concurrent use; like the rest of the simulator it lives on
// the single-threaded engine loop.
type Picture struct {
	self asset.ID
	state
}

// NewPicture returns an empty replica owned by actor self.
func NewPicture(self asset.ID) *Picture { return &Picture{self: self} }

// Self returns the owning actor.
func (p *Picture) Self() asset.ID { return p.self }

// ObserveTrack records the replica owner's current estimate of its local
// track id at virtual time at. Later stamps supersede earlier ones; a
// stale observation (earlier stamp) is ignored.
func (p *Picture) ObserveTrack(id int, fix TrackFix, at time.Duration) {
	in := []trackReg{{Key: TrackKey{Actor: p.self, ID: id}, Fix: fix, Stamp: Stamp{T: at, Actor: p.self}}}
	joinRun(&p.tracks, in, cmpTrack, foldTrack, false)
}

// ObserveTrust records the owner's accumulated evidence about subject.
// Evidence only grows: the stored pair is the pointwise max of every
// observation, so re-delivery and reordering are harmless.
func (p *Picture) ObserveTrust(subject asset.ID, alpha, beta float64) {
	e := Evidence{}.join(Evidence{Alpha: alpha, Beta: beta})
	joinRun(&p.trust, []trustReg{{Subject: subject, Observer: p.self, Evidence: e}}, cmpTrust, foldTrust, false)
}

// Cover records that cell c is covered. Coverage only grows, so covering
// a held cell changes nothing.
func (p *Picture) Cover(c Cell) { joinRun(&p.cells, []Cell{c}, cmpCell, nil, false) }

// Merge joins o into p. The join is commutative, associative, and
// idempotent: LWW registers keep the newer stamp, evidence counters take
// the pointwise max, and coverage is the union of the cell sets.
// o is not modified.
func (p *Picture) Merge(o *Picture) { p.join(&o.state, false) }

// Dominates reports whether p's state is at or past o in the CRDT
// partial order — merging o into p would change nothing: every register
// o holds exists in p with an equal or newer stamp, every evidence pair
// pointwise >=, and p's covered cells contain o's. Merging can
// only move a replica up this order; verify.PictureMonotone checks
// "anti-entropy never regresses CRDT state" against this predicate.
func (p *Picture) Dominates(o *Picture) bool { return !p.join(&o.state, true) }

// Clone returns a deep copy (same owner).
func (p *Picture) Clone() *Picture {
	c := &Picture{self: p.self}
	c.Merge(p)
	return c
}

// Counts summarizes the replica size: tracks, trust pairs, covered
// cells.
func (p *Picture) Counts() (tracks, trustPairs, covered int) {
	return len(p.tracks), len(p.trust), len(p.cells)
}

// state is the replicated (convergent) part of a Picture: three runs of
// fixed-size records, each strictly ascending by its key — the order
// Encode writes, so a received frame and the replica are two sorted
// sequences and every CRDT operation is a merge-join of them (joinRun).
type state struct {
	tracks []trackReg // LWW registers, by (actor, id)
	trust  []trustReg // grow-only evidence pairs, by (subject, observer)
	cells  []Cell     // grow-only set of covered cells, by (x, y)
}

// trackReg is an LWW register: the newest stamp wins on merge.
type trackReg struct {
	Key   TrackKey
	Fix   TrackFix
	Stamp Stamp
}

// trustReg is what Observer has accumulated about Subject.
type trustReg struct {
	Subject, Observer asset.ID
	Evidence
}

// lex orders by the pair (a1, a2) against (b1, b2), first component first.
// It takes integers only and no cmp.Compare, whose NaN handling would put
// it over the inliner's budget: the frame walk compares every record.
func lex[A, B integer](a1, b1 A, a2, b2 B) int {
	switch {
	case a1 < b1 || a1 == b1 && a2 < b2:
		return -1
	case a1 == b1 && a2 == b2:
		return 0
	}
	return 1
}

type integer interface{ ~int | ~int32 }

func cmpKey(a, b TrackKey) int    { return lex(a.Actor, b.Actor, a.ID, b.ID) }
func cmpTrack(a, b *trackReg) int { return cmpKey(a.Key, b.Key) }
func cmpTrust(a, b *trustReg) int { return lex(a.Subject, b.Subject, a.Observer, b.Observer) }
func cmpCell(a, b *Cell) int      { return lex(a.X, b.X, a.Y, b.Y) }

// foldTrack is the LWW rule: in replaces cur iff its stamp is newer.
func foldTrack(cur, in *trackReg) bool {
	if !in.Stamp.After(cur.Stamp) {
		return false
	}
	*cur = *in
	return true
}

// foldTrust is the grow-only rule: cur becomes the pointwise max.
func foldTrust(cur, in *trustReg) bool {
	was := cur.Evidence
	cur.Evidence = was.join(in.Evidence)
	return cur.Evidence != was
}

// joinRun folds the ascending records of in into *run and reports whether
// the run changed (with dry set: would have changed, and nothing is
// written). A record whose key the run lacks is inserted; one whose key
// it holds is combined by fold — nil for the set-valued cell run, where
// holding the key is all there is. It is the package's only copy of the
// merge: Merge, MergeEncoded, Dominates, Clone and the local writes all
// call it, and a per-coalition filter would go here.
//
// The first pass folds matches in place and counts insertions; only if
// there are any does the second open that many slots at the end and merge
// backwards, moving just the tail past the first insertion.
//
//iobt:hot
func joinRun[T any](run *[]T, in []T, order func(a, b *T) int, fold func(cur, in *T) bool, dry bool) bool {
	if len(in) == 0 {
		return false
	}
	r := *run
	start := sort.Search(len(r), func(k int) bool { return order(&r[k], &in[0]) >= 0 })
	changed, fresh := false, 0
	i := start
	for j := range in {
		c := 1 // in[j] against r[i]; stays positive when the run is exhausted
		for ; i < len(r); i++ {
			if c = order(&in[j], &r[i]); c <= 0 {
				break
			}
		}
		switch {
		case c != 0:
			if dry {
				return true
			}
			fresh++
			continue
		case fold == nil:
		case dry:
			if probe := r[i]; fold(&probe, &in[j]) {
				return true
			}
		case fold(&r[i], &in[j]):
			changed = true
		}
		i++ // in ascends strictly: nothing later in it can match r[i] again
	}
	if fresh == 0 {
		return changed
	}
	i = len(r) - 1
	// The only allocation (amortized); a frame adding no key never gets here.
	r = slices.Grow(r, fresh)[:len(r)+fresh]
	// w-i is the number of insertions still to place, so a write never lands
	// on a record not yet moved and the loop ends with r[:w+1] in place.
	for j, w := len(in)-1, len(r)-1; fresh > 0; w-- {
		c := 1
		if i >= start {
			c = order(&in[j], &r[i])
		}
		if c > 0 {
			r[w] = in[j]
			fresh--
		} else {
			r[w] = r[i]
			i--
		}
		if c >= 0 {
			j--
		}
	}
	*run = r
	return true
}

// join folds o into s (with dry set: reports whether that would change s).
func (s *state) join(o *state, dry bool) bool {
	a, b := joinRun(&s.tracks, o.tracks, cmpTrack, foldTrack, dry), joinRun(&s.trust, o.trust, cmpTrust, foldTrust, dry)
	c := joinRun(&s.cells, o.cells, cmpCell, nil, dry)
	return a || b || c
}

// subjectEnd returns the end of the row (one subject) starting at trust[i].
func (s *state) subjectEnd(i int) int {
	for subject := s.trust[i].Subject; i < len(s.trust) && s.trust[i].Subject == subject; i++ {
	}
	return i
}
