package checkpoint

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"
)

// Journal is the decision log of one mission run: every consequential
// runtime event (incident, delivery, failure, failover, checkpoint) as
// a timestamped line. Two runs of the same seed and fault plan must
// produce byte-identical journals — the replay verifier turns that
// claim into an asserted invariant.
type Journal struct {
	// Seed and Plan identify the run being recorded (the replay recipe).
	Seed int64
	Plan string

	lines []string
}

// NewJournal returns an empty journal for the given replay recipe.
func NewJournal(seed int64, plan string) *Journal {
	return &Journal{Seed: seed, Plan: plan}
}

// Logf appends one event line stamped with virtual time now.
func (j *Journal) Logf(now time.Duration, format string, args ...any) {
	if j == nil {
		return
	}
	j.lines = append(j.lines, fmt.Sprintf("%12d %s", now.Nanoseconds(), fmt.Sprintf(format, args...)))
}

// Digest returns an FNV-1a hash over the recipe and every line.
func (j *Journal) Digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d\n", j.Seed)
	_, _ = h.Write([]byte(j.Plan))
	_, _ = h.Write([]byte{0})
	for _, l := range j.lines {
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// String renders the journal (for debugging diverged runs).
func (j *Journal) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal seed=%d plan=%q digest=%016x entries=%d\n",
		j.Seed, j.Plan, j.Digest(), len(j.lines))
	for _, l := range j.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Divergence pinpoints the first difference between two journals.
type Divergence struct {
	// Index is the first differing line (== len of the shorter journal
	// when one is a prefix of the other).
	Index int
	// A and B are the differing lines ("<end of journal>" when one ran
	// out).
	A, B string
}

// Error formats the divergence as a diagnostic string.
func (d *Divergence) Error() string {
	return fmt.Sprintf("replay diverged at entry %d:\n  run A: %s\n  run B: %s", d.Index, d.A, d.B)
}

// Compare diffs two journals line by line. It returns nil when they are
// identical, otherwise the first divergence.
func Compare(a, b *Journal) *Divergence {
	const end = "<end of journal>"
	n := len(a.lines)
	if len(b.lines) < n {
		n = len(b.lines)
	}
	for i := 0; i < n; i++ {
		if a.lines[i] != b.lines[i] {
			return &Divergence{Index: i, A: a.lines[i], B: b.lines[i]}
		}
	}
	if len(a.lines) != len(b.lines) {
		d := &Divergence{Index: n, A: end, B: end}
		if n < len(a.lines) {
			d.A = a.lines[n]
		}
		if n < len(b.lines) {
			d.B = b.lines[n]
		}
		return d
	}
	return nil
}

// VerifyReplay runs a mission twice — run receives a fresh journal each
// time and must rebuild the entire world from its recorded recipe — and
// diffs the journals. It returns nil when the runs are byte-identical:
// "deterministic for a fixed seed" as an asserted invariant rather than
// a claim.
func VerifyReplay(seed int64, plan string, run func(*Journal)) *Divergence {
	a := NewJournal(seed, plan)
	run(a)
	b := NewJournal(seed, plan)
	run(b)
	return Compare(a, b)
}

// VerifyEquivalence runs several implementations of the same recipe —
// each receives a fresh journal — and diffs every run against the
// first. It generalizes VerifyReplay from "same code twice" to
// "different configurations, same observable history": the sharded
// engine uses it to assert that a 1-shard and an N-shard run of one
// seed log byte-identical journals. The returned divergence is the
// first mismatch found, nil when all runs agree (or fewer than two runs
// were given).
func VerifyEquivalence(seed int64, plan string, runs ...func(*Journal)) *Divergence {
	var ref *Journal
	for _, run := range runs {
		j := NewJournal(seed, plan)
		run(j)
		if ref == nil {
			ref = j
			continue
		}
		if d := Compare(ref, j); d != nil {
			return d
		}
	}
	return nil
}
