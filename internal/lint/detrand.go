package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRand enforces the determinism contract on randomness and time:
// simulation code draws randomness only from internal/sim's seeded RNG
// streams and reads time only from the engine's virtual clock, so the
// same seed always produces the same trace. Wall-clock reads and the
// global math/rand source are flagged everywhere except the allowlist:
// internal/sim itself (which runs math/rand's distributions over its
// own seeded source),
// command-line front ends under cmd/, and the runnable examples.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time and unseeded randomness in simulation code; " +
		"use sim.Engine.Now and sim.RNG so same-seed runs stay byte-identical",
	Run: runDetRand,
}

// detrandExemptPrefixes are import-path prefixes where wall-clock and
// direct math/rand use is legitimate: the RNG/clock wrapper itself and
// the process entry points that never run inside the simulated world.
var detrandExemptPrefixes = []string{
	"iobt/internal/sim",
	// The mission service is process-level orchestration AROUND simulated
	// worlds, not code inside them: its watchdogs, restart backoff, and
	// latency metrics are genuinely about host time. Everything it runs
	// inside an engine stays deterministic (and is byte-verified against
	// persisted checkpoints on recovery).
	"iobt/internal/service",
	"iobt/cmd/",
	"iobt/examples/",
}

// bannedTimeFuncs are the wall-clock and real-timer entry points of
// package time. Duration arithmetic and formatting stay allowed — only
// reads of host time and host-timer scheduling break replayability.
var bannedTimeFuncs = map[string]string{
	"Now":       "wall-clock read",
	"Since":     "wall-clock read",
	"Until":     "wall-clock read",
	"Sleep":     "host-timer wait",
	"After":     "host timer",
	"Tick":      "host timer",
	"NewTimer":  "host timer",
	"NewTicker": "host timer",
	"AfterFunc": "host timer",
}

func runDetRand(p *Pass) {
	for _, prefix := range detrandExemptPrefixes {
		if strings.HasPrefix(p.Path+"/", prefix+"/") || strings.HasPrefix(p.Path, prefix) {
			return
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, isSel := n.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			pkgPath, name, ok := pkgQualified(p.Info, sel)
			if !ok {
				return true
			}
			switch pkgPath {
			case "time":
				if why, banned := bannedTimeFuncs[name]; banned {
					p.Reportf(sel.Pos(), "time.%s is a %s; simulation code must use the engine clock (sim.Engine.Now) so same-seed runs replay identically", name, why)
				}
			case "math/rand", "math/rand/v2":
				// Referring to the types (rand.Rand, rand.Source) is
				// harmless; calling package-level functions either hits
				// the global source or builds an unmanaged stream.
				if _, isType := p.Info.Uses[sel.Sel].(*types.TypeName); isType {
					return true
				}
				p.Reportf(sel.Pos(), "%s.%s bypasses the seeded stream discipline; draw from sim.RNG (Derive a named child stream) instead", pkgPath, name)
			case "crypto/rand":
				p.Reportf(sel.Pos(), "crypto/rand is nondeterministic by design; simulation code must draw from sim.RNG")
			}
			return true
		})
	}
}
