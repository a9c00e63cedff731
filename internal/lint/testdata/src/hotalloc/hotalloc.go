// Package hotalloc seeds the per-event allocation findings: direct
// allocation shapes inside a //iobt:hot body (escaping composites,
// make, per-event fmt/errors, unpreallocated append, sort.Slice,
// string conversions, scheduled capturing closures) and — the
// interprocedural case no per-function analyzer can catch — a hot call
// into a cold helper whose allocation is two frames down, carried to
// the call site by the bottom-up allocation summaries. The pooled
// refill shape shows the reasoned-waiver contract, and the reused
// buffer shapes must stay silent. The interface-boxing shapes live in
// the hotbox fixture.
package hotalloc

import (
	"errors"
	"fmt"
	"sort"

	"iobt/internal/sim"
)

type point struct{ x, y int }

//iobt:hot
func tick(c *sim.ShardCtx, buf []int, n int) {
	_ = fmt.Sprintf("tick %d", n) // want `fmt.Sprintf allocates per call`
	_ = errors.New("boom")        // want `errors.New allocates per call`
	p := &point{x: n}             // want `composite literal .*point escapes to the heap`
	_ = p
	_ = map[int]bool{n: true} // want `map literal map\[int\]bool allocates`
	_ = []int{n, n + 1}       // want `slice literal \[\]int allocates its backing array`
	m := make(map[int]int)    // want `make\(map\[int\]int\) allocates`
	_ = m
	var grown []int
	grown = append(grown, n) // want `append to grown, a slice with no preallocated capacity`
	_ = grown
	_ = []byte("payload")                                           // want `conversion string → \[\]byte copies and allocates`
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] }) // want `sort.Slice allocates a closure and a reflect-based swapper`
	c.Schedule(0, "next", func(c *sim.ShardCtx) {                   // want `schedules a closure capturing buf, n`
		_ = buf[n]
	})
}

// reused is the clean shape: appends go to a reslice of a retained
// buffer and to a parameter, struct composites stay by value, and the
// rescheduled callback is a prebuilt value. Nothing fires.
type holder struct {
	scratch []int
	next    func(*sim.ShardCtx)
}

//iobt:hot
func (h *holder) reused(c *sim.ShardCtx, dst []int, n int) []int {
	s := h.scratch[:0]
	s = append(s, n)
	h.scratch = s
	dst = append(dst, point{x: n}.x)
	c.Schedule(0, "next", h.next)
	return dst
}

// newPoint is the cold helper: not annotated, so its body carries no
// finding of its own — but its allocation flows into every hot caller's
// summary.
func newPoint(n int) *point { return &point{x: n} }

// wrap adds a second frame between the hot caller and the allocation:
// the summary pass propagates bottom-up, so the chain survives depth.
func wrap(n int) *point { return newPoint(n) }

//iobt:hot
func hotCaller(n int) {
	_ = wrap(n) // want `call to wrap allocates per event: calls newPoint, which composite literal .*point escapes`
}

// makeTick returns a capturing closure: one allocation per call, so a
// hot caller scheduling a fresh one per event is flagged at its call
// site — the shape fixed by building tick closures once at setup.
func makeTick(hits []int) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) { hits[0]++ }
}

//iobt:hot
func schedules(c *sim.ShardCtx, hits []int) {
	c.Schedule(0, "t", makeTick(hits)) // want `call to makeTick allocates per event: returns a closure capturing hits`
}

// pooled is the refill contract: the steady state recycles, and the
// cold-start allocation is waived with a reason where it happens.
var freeList *point

//iobt:hot
func pooled() *point {
	if p := freeList; p != nil {
		freeList = nil
		return p
	}
	//iobt:allow hotalloc pool refill: allocates only until the free list warms to peak depth, then never
	return &point{}
}

// usesPool calls a hot callee: pooled's waived refill is reported (and
// waived) in pooled's own body, so nothing reappears at the call site.
//
//iobt:hot
func usesPool() {
	_ = pooled() // hot callee: silent here
}

// guard shows the crash-path exemption: formatting a panic message is
// not a per-event cost, so nothing fires inside the panic argument.
//
//iobt:hot
func guard(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // crash path: exempt, silent
	}
}

var misplacedHot int //iobt:hot // want `iobt:hot annotation must sit on a function declaration`
