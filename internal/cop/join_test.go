package cop

import (
	"cmp"
	"slices"
	"testing"

	"iobt/internal/sim"
)

// kv is a minimal record for exercising joinRun on its own: key k,
// grow-only value v.
type kv struct{ k, v int }

func cmpKV(a, b *kv) int { return cmp.Compare(a.k, b.k) }

func foldKV(cur, in *kv) bool {
	if in.v <= cur.v {
		return false
	}
	cur.v = in.v
	return true
}

// randomRun returns up to n records with distinct ascending keys below
// span.
func randomRun(rng *sim.RNG, n, span int) []kv {
	seen := map[int]int{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		seen[rng.Intn(span)] = rng.Intn(10)
	}
	run := make([]kv, 0, len(seen))
	for k, v := range seen {
		run = append(run, kv{k, v})
	}
	slices.SortFunc(run, func(a, b kv) int { return cmpKV(&a, &b) })
	return run
}

// TestJoinRunMatchesMapUnion checks the join against the obvious model —
// pour both runs into a map keeping the larger value, then sort — over
// runs that overlap, interleave, prefix and suffix each other, with and
// without spare capacity, and checks that a dry join reports the same
// verdict without writing.
func TestJoinRunMatchesMapUnion(t *testing.T) {
	rng := sim.NewRNG(20260101)
	for round := 0; round < 2000; round++ {
		span := 1 + rng.Intn(40)
		run, in := randomRun(rng, 12, span), randomRun(rng, 12, span)
		if rng.Bool(0.5) {
			run = slices.Grow(run, rng.Intn(8))
		}

		model := map[int]int{}
		for _, r := range run {
			model[r.k] = r.v
		}
		wantChanged := false
		for _, r := range in {
			if v, ok := model[r.k]; !ok || r.v > v {
				model[r.k] = r.v
				wantChanged = true
			}
		}
		want := make([]kv, 0, len(model))
		for k, v := range model {
			want = append(want, kv{k, v})
		}
		slices.SortFunc(want, func(a, b kv) int { return cmpKV(&a, &b) })

		before, inBefore := slices.Clone(run), slices.Clone(in)
		if got := joinRun(&run, in, cmpKV, foldKV, true); got != wantChanged {
			t.Fatalf("round %d: dry join of %v into %v reports %v, want %v", round, in, before, got, wantChanged)
		}
		if !slices.Equal(run, before) {
			t.Fatalf("round %d: dry join wrote: %v, was %v", round, run, before)
		}
		if got := joinRun(&run, in, cmpKV, foldKV, false); got != wantChanged {
			t.Fatalf("round %d: join of %v into %v reports changed=%v, want %v", round, in, before, got, wantChanged)
		}
		if !slices.Equal(run, want) {
			t.Fatalf("round %d: join of %v into %v = %v, want %v", round, in, before, run, want)
		}
		if !slices.Equal(in, inBefore) {
			t.Fatalf("round %d: join modified its input: %v, was %v", round, in, inBefore)
		}
		if joinRun(&run, in, cmpKV, foldKV, true) {
			t.Fatalf("round %d: join is not idempotent: %v still changes %v", round, in, run)
		}
	}
}

// TestJoinRunSetSemantics: with no fold rule the run is a set — holding
// the key is all there is, so equal keys never count as a change.
func TestJoinRunSetSemantics(t *testing.T) {
	run := []kv{{1, 0}, {3, 0}}
	if joinRun(&run, []kv{{1, 9}, {3, 9}}, cmpKV, nil, false) {
		t.Error("joining keys the set already holds reported a change")
	}
	if !joinRun(&run, []kv{{0, 5}, {2, 5}, {4, 5}}, cmpKV, nil, false) {
		t.Error("joining new keys reported no change")
	}
	if want := []kv{{0, 5}, {1, 0}, {2, 5}, {3, 0}, {4, 5}}; !slices.Equal(run, want) {
		t.Errorf("set union = %v, want %v", run, want)
	}
}
