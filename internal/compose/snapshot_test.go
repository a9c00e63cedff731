package compose

import (
	"runtime"
	"testing"

	"iobt/internal/asset"
	"iobt/internal/checkpoint"
)

func TestCompositeEncodeDecodeRoundTrip(t *testing.T) {
	c := &Composite{Members: []asset.ID{4, 1, 9}}
	c.Assurance.CoverageFrac = 0.82
	c.Assurance.Connected = true
	c.Assurance.MeanTrust = 0.71
	c.Assurance.RiskFrac = 0.05
	c.Assurance.Feasible = true

	e := checkpoint.NewEncoder()
	EncodeComposite(e, c)
	got := DecodeComposite(checkpoint.NewDecoder(e.Bytes()))
	if got == nil {
		t.Fatal("decoded nil for non-nil composite")
	}
	if len(got.Members) != 3 || got.Members[0] != 4 || got.Members[1] != 1 || got.Members[2] != 9 {
		t.Errorf("members = %v, want [4 1 9]", got.Members)
	}
	if got.Assurance.CoverageFrac != c.Assurance.CoverageFrac ||
		got.Assurance.Connected != c.Assurance.Connected ||
		got.Assurance.MeanTrust != c.Assurance.MeanTrust ||
		got.Assurance.RiskFrac != c.Assurance.RiskFrac ||
		got.Assurance.Feasible != c.Assurance.Feasible {
		t.Errorf("assurance = %+v, want %+v", got.Assurance, c.Assurance)
	}
}

func TestCompositeEncodeNil(t *testing.T) {
	e := checkpoint.NewEncoder()
	EncodeComposite(e, nil)
	if got := DecodeComposite(checkpoint.NewDecoder(e.Bytes())); got != nil {
		t.Errorf("decoded %+v for nil marker, want nil", got)
	}
}

// TestDecodeCompositeRefusesClaimedCount: a roll count other than the
// nil marker that is negative or larger than the bytes left is a decode
// error, and the member slice is not sized from the claim.
func TestDecodeCompositeRefusesClaimedCount(t *testing.T) {
	for _, n := range []int{-2, 1 << 20} {
		e := checkpoint.NewEncoder()
		e.Int(n)
		d := checkpoint.NewDecoder(e.Bytes())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := DecodeComposite(d)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
			t.Errorf("count %d: an 8-byte roll allocated %d bytes", n, grew)
		}
		if c != nil || d.Err() == nil {
			t.Errorf("count %d: decoded %v, err %v; want nil and an error", n, c, d.Err())
		}
	}
}
