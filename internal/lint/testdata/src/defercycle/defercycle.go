// Package defercycle seeds the loop-acquisition findings: a defer and
// a mutex acquisition inside a //iobt:hot loop. The hoisted-lock and
// closure-resets-context shapes must stay silent, and the intentional
// per-element handoff shows the reasoned-waiver contract.
package defercycle

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

//iobt:hot
func drain(gs []*guarded) {
	for _, g := range gs {
		g.mu.Lock()         // want `acquires g.mu inside a per-event loop`
		defer g.mu.Unlock() // want `defer inside a per-event loop`
		g.n++
	}
}

//iobt:hot
func hoisted(g *guarded, rounds int) {
	g.mu.Lock() // outside the loop: silent
	defer g.mu.Unlock()
	for i := 0; i < rounds; i++ {
		g.n++
	}
}

//iobt:hot
func closureResets(gs []*guarded, run func(func())) {
	for range gs {
		run(func() {
			g := gs[0]
			g.mu.Lock() // closure body runs later, not per iteration: silent
			defer g.mu.Unlock()
			g.n++
		})
	}
}

//iobt:hot
func handoff(gs []*guarded) {
	for _, g := range gs {
		//iobt:allow defercycle one uncontended lock per element is the mailbox handoff point, not a per-event cost
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}
}

// failFast is audit mutant #18's shape: a per-event check of a flag
// every worker shares. It allocates nothing, races nothing and changes
// no result, so only this rule sees the shared lock taken per event.
//
//iobt:hot
func failFast(g *guarded, events []int) {
	for _, ev := range events {
		g.mu.Lock() // want `acquires g.mu inside a per-event loop`
		failed := g.n < 0
		g.mu.Unlock()
		if failed {
			return
		}
		_ = ev
	}
}

// cold loops may defer and lock freely.
func cold(gs []*guarded) {
	for _, g := range gs {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.n++
	}
}

var misplacedHot int //iobt:hot // want `iobt:hot annotation must sit on a function declaration`
