package sim

// Tests of the lane's event queue on its own: the structural invariant
// (checkQueue), a fuzzed differential against a reference sort on the
// full event key, and the zero-allocation pin on the one below-base
// path.

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// queued lists q's events in no particular order.
func queued(q *eventQueue) []*event {
	out := slices.Clone(q.ties)
	for i := range q.head {
		for ev := q.head[i]; ev != nil; ev = ev.next {
			out = append(out, ev)
		}
	}
	return out
}

// pending counts the events left on lanes: each queue plus its staged
// mailbox. Only valid while no run is in progress.
//
//iobt:barrier
func pending(lanes ...*lane) int {
	n := 0
	for _, ln := range lanes {
		n += ln.queue.len() + len(ln.inbox)
	}
	return n
}

// checkQueue verifies q's layout: ties is a heap of events at base,
// bucket i holds exactly the events whose time first differs from base
// at bit i, least and occ describe the buckets, and n counts it all.
func checkQueue(q *eventQueue) error {
	n := len(q.ties)
	for k, ev := range q.ties {
		if ev.at != q.base {
			return fmt.Errorf("tie %d at %v, base %v", k, ev.at, q.base)
		}
		if k > 0 && ev.before(q.ties[(k-1)/2]) {
			return fmt.Errorf("tie heap order broken at index %d", k)
		}
	}
	for i := range q.head {
		occupied := q.occ&(1<<i) != 0
		if occupied != (q.head[i] != nil) {
			return fmt.Errorf("bucket %d: occupancy bit %v, list empty %v", i, occupied, q.head[i] == nil)
		}
		var least time.Duration
		for ev := q.head[i]; ev != nil; ev = ev.next {
			n++
			if ev.at <= q.base {
				return fmt.Errorf("bucket %d holds %v, not after base %v", i, ev.at, q.base)
			}
			if b := bits.Len64(uint64(ev.at^q.base)) - 1; b != i {
				return fmt.Errorf("event at %v filed in bucket %d, belongs in %d (base %v)", ev.at, i, b, q.base)
			}
			if ev == q.head[i] || ev.at < least {
				least = ev.at
			}
		}
		if occupied && q.least[i] != least {
			return fmt.Errorf("bucket %d: least %v, earliest event %v", i, q.least[i], least)
		}
	}
	if n != q.n {
		return fmt.Errorf("len %d, %d events queued", q.n, n)
	}
	return nil
}

// queueScript interprets script two bytes at a time against an
// eventQueue and a reference slice popped by a full-key sort: pushes of
// ties, near, far-future and below-base times, pops, minAt reads and
// filters. After every op the pop order, len, minAt and the layout must
// agree with the reference.
func queueScript(t *testing.T, script []byte) {
	t.Helper()
	var q eventQueue
	var ref []*event
	var seq uint64
	refMin := func() int {
		m := 0
		for k, ev := range ref {
			if ev.before(ref[m]) {
				m = k
			}
		}
		return m
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		v := time.Duration(arg >> 2)
		switch op % 6 {
		case 0, 1, 2: // push
			var at time.Duration
			switch arg & 3 {
			case 0: // a tie: at base, or on a queued event's time
				at = q.base
				if len(ref) > 0 && v%2 == 1 {
					at = ref[int(v)%len(ref)].at
				}
			case 1: // near
				at = q.base + v
			case 2: // far future, up to 2^61
				at = q.base + time.Duration(1)<<(v%62)
				if at < 0 {
					at = 1 << 61
				}
			case 3: // below base (never below zero, like every lane time)
				at = q.base - (v+1)*time.Duration(op)
				if at < 0 {
					at = 0
				}
			}
			seq++
			ev := &event{at: at, actor: ActorID(op % 3), class: uint8(op/3) % 2, a: uint64(arg % 5), b: seq}
			q.push(ev)
			ref = append(ref, ev)
		case 3: // pop
			if len(ref) == 0 {
				continue
			}
			m := refMin()
			want := ref[m]
			ref = slices.Delete(ref, m, m+1)
			if got := q.pop(); got != want {
				t.Fatalf("op %d: popped (%v,%d,%d,%d,%d), want (%v,%d,%d,%d,%d)", i/2,
					got.at, got.actor, got.class, got.a, got.b, want.at, want.actor, want.class, want.a, want.b)
			}
		case 4: // filter: drop every event whose sequence is a multiple of k
			k := uint64(arg%4) + 2
			dropped := map[*event]bool{}
			for ev := q.filter(func(ev *event) bool { return ev.b%k == 0 }); ev != nil; ev = ev.next {
				dropped[ev] = true
			}
			kept := ref[:0]
			for _, ev := range ref {
				if ev.b%k == 0 {
					if !dropped[ev] {
						t.Fatalf("op %d: filter kept event %d", i/2, ev.b)
					}
					delete(dropped, ev)
				} else {
					kept = append(kept, ev)
				}
			}
			if len(dropped) != 0 {
				t.Fatalf("op %d: filter dropped %d events it should have kept", i/2, len(dropped))
			}
			ref = kept
		case 5: // minAt alone; checked below after every op
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len %d, reference %d", i/2, q.len(), len(ref))
		}
		at, ok := q.minAt()
		if ok != (len(ref) > 0) || (ok && at != ref[refMin()].at) {
			t.Fatalf("op %d: minAt (%v, %v), reference holds %d events", i/2, at, ok, len(ref))
		}
		if err := checkQueue(&q); err != nil {
			t.Fatalf("op %d: %v", i/2, err)
		}
	}
	for len(ref) > 0 {
		m := refMin()
		want := ref[m]
		ref = slices.Delete(ref, m, m+1)
		if got := q.pop(); got != want {
			t.Fatalf("drain: popped at %v seq %d, want at %v seq %d", got.at, got.b, want.at, want.b)
		}
	}
}

// randomScript is a seeded queueScript input.
func randomScript(seed int64, ops int) []byte {
	rng := NewRNG(seed)
	script := make([]byte, 2*ops)
	for i := range script {
		script[i] = byte(rng.Intn(256))
	}
	return script
}

func FuzzEventQueue(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomScript(seed, 200))
	}
	// Push a tie, a far-future time and two below-base times around pops.
	f.Add([]byte{0, 0, 0, 0xfe, 3, 0, 1, 0x05, 3, 0, 0, 0xff, 2, 0x13, 5, 0, 4, 1, 3, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			script = script[:1024]
		}
		queueScript(t, script)
	})
}

// TestEventQueueBelowBaseZeroAlloc pins the below-base insert at zero
// allocations: each round pops 15 of 32 events (two per millisecond, so
// the last pop leaves a tie at base) and pushes them back, the first
// below base, which relinks the tie and the lower buckets into one.
func TestEventQueueBelowBaseZeroAlloc(t *testing.T) {
	var q eventQueue
	for i := 0; i < 32; i++ {
		q.push(&event{at: time.Duration(i/2) * time.Millisecond, b: uint64(i)})
	}
	var popped [15]*event
	round := func() {
		for i := range popped {
			popped[i] = q.pop()
		}
		for _, ev := range popped {
			q.push(ev)
		}
	}
	round() // grow ties to its steady capacity
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("below-base round allocated %v, want 0", allocs)
	}
	if err := checkQueue(&q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if ev := q.pop(); ev.b != uint64(i) {
			t.Fatalf("pop %d returned event %d", i, ev.b)
		}
	}
}
