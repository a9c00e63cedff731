// Package dettaint exercises the taint analyzer on the sharded engine's
// sinks and on flows that cross at least one call boundary between the
// map range (or entropy source) and the sink. The local single-engine
// shapes live in the maporder fixture. The collect-keys-then-sort idiom
// and reasoned allows are clean.
package dettaint

import (
	"sort"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/sim"
)

// sendEach is the sharded engine's shape: one Send per peer, queued in
// map order.
func sendEach(c *sim.ShardCtx, peers map[sim.ActorID]bool, deliver func(*sim.ShardCtx)) {
	for p := range peers {
		c.Send(p, 0, "msg", deliver) // want `map-iteration order .* flows into event scheduling \(ShardCtx\.Send\)`
	}
}

// pickFirst returns whichever key the map yields first — a scalar, so
// no slice escapes, but the result order-depends on map iteration.
func pickFirst(m map[string]func()) string {
	for k := range m {
		return k
	}
	return ""
}

func scheduleArbitrary(m map[string]func(), eng *sim.Engine) {
	name := pickFirst(m)
	eng.Schedule(0, name, func() {}) // want `map-iteration order .* via pickFirst flows into event scheduling`
}

// joined concatenates keys in map order: string += is not a
// commutative integer reduction, so the result is order-tainted.
func joined(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

func encodeJoined(m map[string]int, e *checkpoint.Encoder) {
	e.String(joined(m)) // want `map-iteration order .* via joined flows into checkpoint encoding`
}

// lastKey launders the taint through a second helper: two call
// boundaries between the range and the sink.
func lastKey(m map[int]bool) int {
	last := 0
	for k := range m {
		last = k
	}
	return last
}

func relay(m map[int]bool) int { return lastKey(m) }

func drawTainted(m map[int]bool, rng *sim.RNG) int {
	return rng.Intn(relay(m) + 1) // want `map-iteration order .* via relay → lastKey flows into the seeded RNG`
}

// hostJitter derives a delay from the wall clock; sorting cannot wash
// host entropy out, so the scheduling below is a finding even though
// the value passed through a helper.
func hostJitter() time.Duration {
	return time.Duration(time.Now().UnixNano() % 1000)
}

func scheduleJittered(eng *sim.Engine) {
	eng.Schedule(hostJitter(), "jitter", func() {}) // want `host entropy .* via hostJitter flows into event scheduling`
}

// sortedKeys is the canonical collect-then-sort idiom; the sort
// sanitizes the slice, so encoding it downstream is clean.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func encodeSorted(m map[string]int, e *checkpoint.Encoder) {
	for _, k := range keys2(m) {
		e.String(k)
	}
}

func keys2(m map[string]int) []string { return sortedKeys(m) }

// total is a commutative integer reduction: order-insensitive, clean
// even across the call boundary.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func drawClean(m map[string]int, rng *sim.RNG) int {
	return rng.Intn(total(m) + 1)
}

// allowedProbe demonstrates the reasoned-waiver escape hatch for an
// interprocedural flow.
func allowedProbe(m map[string]func(), eng *sim.Engine) {
	name := pickFirst(m)
	//iobt:allow dettaint fixture: debug probe fires once at t=0 and never reaches a trace or snapshot
	eng.Schedule(0, name, func() {})
}
