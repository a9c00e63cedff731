// Package hotbox keeps the retired hotbox analyzer's fixture, now
// checked by hotalloc, where boxing is one more allocation site:
// concrete non-pointer-shaped values crossing into interface arguments,
// assignments, conversions, and returns inside //iobt:hot bodies, plus
// the bound-method-closure shape. Pointer payloads box for free and
// must stay silent — that is the *frame fix the rule pushes toward.
package hotbox

type pair struct{ a, b int }

type sink struct{ v any }

func consume(v any)         {}
func consumeMany(vs ...any) {}
func typed(p pair)          {}
func pointered(p *pair)     {}

//iobt:hot
func box(p pair, pp *pair) {
	consume(p)  // want `argument boxes hotbox.pair into any`
	consume(pp) // pointer-shaped: boxes for free, silent
	typed(p)    // concrete parameter: no interface, silent
	pointered(pp)
	consumeMany(p.a, p.b) // want `argument boxes int into any` `argument boxes int into any`
	var s sink
	s.v = p // want `assignment boxes hotbox.pair into any`
	_ = s
	_ = any(p) // want `conversion boxes hotbox.pair into any`
}

//iobt:hot
func toIface(p pair) any {
	return p // want `return boxes hotbox.pair into any`
}

//iobt:hot
func toIfacePtr(p *pair) any {
	return p // pointer-shaped: silent
}

type counter struct{ n int }

func (c *counter) bump() {}

//iobt:hot
func methodValue(c *counter) {
	f := c.bump // want `method value c.bump allocates a bound-method closure`
	f()
	c.bump() // direct dispatch: silent
}

// cold is not annotated: boxing off the hot path is fine, until a hot
// function calls it.
func cold(p pair) { consume(p) }

//iobt:hot
func callsCold(p pair) {
	cold(p) // want `call to cold allocates per event: argument boxes hotbox.pair into any`
}
