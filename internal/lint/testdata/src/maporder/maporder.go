// Package maporder keeps the retired maporder analyzer's fixture, now
// checked by dettaint: map iteration feeding ordered sinks (writers,
// checkpoint encoders, RNG draws, event scheduling, escaping slices) in
// the function that ranges is a finding, reported once at the sink; the
// collect-keys-then-sort idiom and reasoned allows are not.
package maporder

import (
	"fmt"
	"sort"
	"strings"

	"iobt/internal/checkpoint"
	"iobt/internal/sim"
)

func emit(m map[string]int) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d\n", k, v) // want `map-iteration order .* flows into ordered output \(fmt\.Fprintf\)`
	}
	return b.String()
}

func writeEach(m map[string]string, b *strings.Builder) {
	for _, v := range m {
		b.WriteString(v) // want `map-iteration order .* flows into ordered output \(WriteString\)`
	}
}

func encode(m map[int]float64, e *checkpoint.Encoder) {
	for k, v := range m {
		e.Int(k)     // want `map-iteration order .* flows into checkpoint encoding \(Encoder\.Int\)`
		e.Float64(v) // want `map-iteration order .* flows into checkpoint encoding \(Encoder\.Float64\)`
	}
}

// draw passes no tainted value to the stream, but draws once per entry:
// the control-dependence rule.
func draw(m map[string]int, rng *sim.RNG) float64 {
	sum := 0.0
	for range m {
		sum += rng.Float64() // want `the seeded RNG \(RNG\.Float64\) runs once per map entry, in map-iteration order`
	}
	return sum
}

func schedule(m map[string]func(), eng *sim.Engine) {
	for name, fn := range m {
		eng.Schedule(0, name, fn) // want `map-iteration order .* flows into event scheduling \(Engine\.Schedule\)`
	}
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want `collectUnsorted returns a slice ordered by map-iteration order`
}

// collectSorted is the repo's canonical idiom: collect, sort, use.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortKeys shows a local sortXxx helper counts as sorting.
func sortKeys(s []string) { sort.Strings(s) }

func collectHelperSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// commutative accumulation never leaves the loop; no finding.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func allowedDebugDump(m map[string]int) {
	for k := range m {
		//iobt:allow dettaint debug dump on demand; output order never reaches a trace or snapshot
		fmt.Println(k)
	}
}
