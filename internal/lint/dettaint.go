package lint

import "strings"

// DetTaint is the suite's one map-order and entropy analyzer. It runs
// on the whole-program taint summaries (see taint.go/summaries.go): a
// value whose order depends on map iteration, or whose content derives
// from host entropy, must not reach event scheduling, checkpoint/codec
// encoders, RNG stream selection, ordered writers, or a function's
// slice result — in the same function or across any number of calls (a
// helper that returns an arbitrary map key, a caller that hands a
// tainted slice to a function that encodes it). A sink called inside a
// map-range body is a finding even when no tainted value reaches it:
// a draw or a write per entry happens in iteration order. The fix is
// the repo's standard idiom: collect the keys, sort them, iterate the
// sorted slice (see trust.Ledger.Snapshot).
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc: "forbid map-iteration-ordered or host-entropy-tainted values, and sinks called once per map entry, " +
		"from reaching schedulers, encoders, RNG draws, ordered writers, or returned slices",
	Run: runDetTaint,
}

func runDetTaint(p *Pass) {
	// The same entry points detrand exempts are exempt here: cmd/ and
	// examples/ legitimately turn host entropy into seeds, and
	// internal/sim is the wrapper that builds deterministic streams.
	// Their bodies still contribute summaries, so taint flowing
	// through them into simulation code is reported at that code.
	for _, prefix := range detrandExemptPrefixes {
		if strings.HasPrefix(p.Path+"/", prefix+"/") || strings.HasPrefix(p.Path, prefix) {
			return
		}
	}
	for _, f := range p.Prog.findingsFor(p.Path) {
		p.Reportf(f.pos, "%s", f.msg)
	}
}
