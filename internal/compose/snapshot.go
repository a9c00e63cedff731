package compose

import (
	"iobt/internal/asset"
	"iobt/internal/checkpoint"
)

// Composite membership is part of the command post's mission state: the
// post that synthesized the composite is the only place the member roll
// exists. EncodeComposite/DecodeComposite give the checkpoint subsystem
// a deterministic wire form so a warm-promoted successor inherits the
// roll instead of re-synthesizing it.

// EncodeComposite appends the composite's membership and headline
// assurance to the encoder. Members are written in roll order (the
// solver's order is deterministic per seed, and restoring it preserves
// any order-dependent downstream behavior exactly).
func EncodeComposite(e *checkpoint.Encoder, c *Composite) {
	if c == nil {
		e.Int(-1)
		return
	}
	e.Int(len(c.Members))
	for _, id := range c.Members {
		e.Int64(int64(id))
	}
	e.Float64(c.Assurance.CoverageFrac)
	e.Bool(c.Assurance.Connected)
	e.Float64(c.Assurance.MeanTrust)
	e.Float64(c.Assurance.RiskFrac)
	e.Bool(c.Assurance.Feasible)
}

// DecodeComposite reads a composite written by EncodeComposite,
// returning nil for the nil marker. Violations and resource detail are
// not round-tripped; a restored composite carries the roll plus the
// headline assurance figures the runtime reports.
func DecodeComposite(d *checkpoint.Decoder) *Composite {
	n := d.Int()
	if d.Err() != nil || n == -1 {
		return nil
	}
	// Every member is 8 bytes; the assurance figures follow the roll.
	n = d.Count(n, 8)
	if d.Err() != nil {
		return nil
	}
	c := &Composite{Members: make([]asset.ID, 0, n)}
	for i := 0; i < n; i++ {
		c.Members = append(c.Members, asset.ID(d.Int64()))
	}
	c.Assurance.CoverageFrac = d.Float64()
	c.Assurance.Connected = d.Bool()
	c.Assurance.MeanTrust = d.Float64()
	c.Assurance.RiskFrac = d.Float64()
	c.Assurance.Feasible = d.Bool()
	if d.Err() != nil {
		return nil
	}
	return c
}
