package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseCrashAndFailover(t *testing.T) {
	p, err := Parse(`
plan failover
crash post at=2m0s
failover warm at=2m30s
failover cold at=3m0s
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(p.Faults))
	}
	if f := p.Faults[0]; f.Kind != CrashPost || f.At != 2*time.Minute {
		t.Errorf("crash parsed as %+v", f)
	}
	if f := p.Faults[1]; f.Kind != Failover || !f.Warm || f.At != 150*time.Second {
		t.Errorf("failover warm parsed as %+v", f)
	}
	if f := p.Faults[2]; f.Kind != Failover || f.Warm {
		t.Errorf("failover cold parsed as %+v", f)
	}

	rendered := p.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered plan: %v\n%s", err, rendered)
	}
	for i := range p.Faults {
		if p.Faults[i] != p2.Faults[i] {
			t.Errorf("fault %d round-tripped %+v -> %+v", i, p.Faults[i], p2.Faults[i])
		}
	}
}

func TestParseCrashFailoverErrors(t *testing.T) {
	for _, bad := range []string{
		"crash at=30s",          // missing operand
		"crash tower at=30s",    // wrong operand
		"failover at=30s",       // missing disposition
		"failover tepid at=30s", // unknown disposition
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Operand errors carry line numbers too.
	if _, err := Parse("jam at=10s\nfailover at=20s"); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line number: %v", err)
	}
}

// TestScaledPlanRoundTrips pins that a scaled plan's name, which seeds
// its fault stream, survives String and Parse with its space.
func TestScaledPlanRoundTrips(t *testing.T) {
	p := StandardPlan(1200).Scale(0.25)
	got, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip changed the plan:\n%v\n%v", p, got)
	}
}

// FuzzParsePlan asserts the parse→format→parse fixed point: any source
// the parser accepts must render to a DSL string that re-parses to the
// identical fault list, and that rendering must itself be a fixed point
// (format(parse(format(parse(src)))) == format(parse(src))).
func FuzzParsePlan(f *testing.F) {
	f.Add("plan seed\npartition at=30s for=1m0s x=600")
	f.Add("jam at=1m0s for=1m0s cx=600 cy=600 r=300 intensity=0.9")
	f.Add("kill at=90s frac=0.33 of=composite\ncploss at=95s")
	f.Add("corrupt at=2m for=30s prob=0.2\ndelay at=2m for=30s add=500ms prob=0.5")
	f.Add("churn at=3m for=60s rate=0.2\nsmoke at=3m for=40s cx=500 cy=500 r=200")
	f.Add("crash post at=2m\nfailover warm at=2m30s")
	f.Add("crash post at=2m\nfailover cold at=2m30s")
	f.Add("# comment\n\nplan x\nkill at=1s frac=1e-3")
	f.Add("partition at=30s x=600\nheal at=2m")
	f.Add("jam region at=1m for=1m x0=200 y0=200 x1=600 y1=600 intensity=0.9")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; acceptance must round-trip
		}
		s1 := p.String()
		p2, err := Parse(s1)
		if err != nil {
			t.Fatalf("rendered plan does not re-parse: %v\nsource: %q\nrendered: %q", err, src, s1)
		}
		if len(p2.Faults) != len(p.Faults) || p2.Name != p.Name {
			t.Fatalf("round trip changed shape: %d/%q -> %d/%q\nsource: %q",
				len(p.Faults), p.Name, len(p2.Faults), p2.Name, src)
		}
		for i := range p.Faults {
			if p.Faults[i] != p2.Faults[i] {
				t.Fatalf("fault %d changed across round trip:\n  %+v\n  %+v\nsource: %q",
					i, p.Faults[i], p2.Faults[i], src)
			}
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("format not a fixed point:\n  %q\n  %q\nsource: %q", s1, s2, src)
		}
	})
}
