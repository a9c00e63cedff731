package intent

import (
	"errors"
	"strings"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/core"
)

const fullSpec = `
mission "rescue-east"
area (100,100)-(900,700)
cover 70% x2
sense visual+thermal
compute 5000
bandwidth 2000
latency < 100ms
trust >= 0.4
risk <= 20%
members <= 50
command hierarchy levels 4
deadline 45s
rate 12/min
`

func TestParseFullSpec(t *testing.T) {
	m, err := Parse(fullSpec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := m.Goal
	if g.Name != "rescue-east" {
		t.Errorf("name = %q", g.Name)
	}
	if g.Area.Min.X != 100 || g.Area.Max.Y != 700 {
		t.Errorf("area = %+v", g.Area)
	}
	if g.CoverageFrac != 0.7 || g.Redundancy != 2 {
		t.Errorf("coverage = %v x%d", g.CoverageFrac, g.Redundancy)
	}
	if g.Modalities != asset.ModVisual|asset.ModThermal {
		t.Errorf("modalities = %v", g.Modalities)
	}
	if g.Compute != 5000 || g.Bandwidth != 2000 {
		t.Errorf("resources = %v / %v", g.Compute, g.Bandwidth)
	}
	if g.MaxLatency != 100*time.Millisecond {
		t.Errorf("latency = %v", g.MaxLatency)
	}
	if g.MinTrust != 0.4 {
		t.Errorf("trust = %v", g.MinTrust)
	}
	if g.MaxRiskFrac != 0.2 {
		t.Errorf("risk = %v", g.MaxRiskFrac)
	}
	if g.MaxMembers != 50 {
		t.Errorf("members = %v", g.MaxMembers)
	}
	if m.Command != core.CommandHierarchy || m.HierarchyLevels != 4 {
		t.Errorf("command = %v levels %d", m.Command, m.HierarchyLevels)
	}
	if m.IncidentDeadline != 45*time.Second {
		t.Errorf("deadline = %v", m.IncidentDeadline)
	}
	if m.IncidentsPerMin != 12 {
		t.Errorf("rate = %v", m.IncidentsPerMin)
	}
}

func TestParseMinimalSpec(t *testing.T) {
	m, err := Parse(`area (0,0)-(100,100)`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Defaults from core.DefaultMission survive.
	if m.Command != core.CommandIntent {
		t.Errorf("default command = %v", m.Command)
	}
	if m.Goal.CoverageFrac <= 0 {
		t.Error("default coverage missing")
	}
}

func TestParseSemicolonsAndComments(t *testing.T) {
	m, err := Parse(`# a comment
area (0,0)-(10,10); cover 50%; command intent`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Goal.CoverageFrac != 0.5 {
		t.Errorf("coverage = %v", m.Goal.CoverageFrac)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"missing area", `cover 50%`, "missing mandatory"},
		{"bad area", `area (0,0)-(0,0)`, "degenerate"},
		{"bad area syntax", `area 0,0 10,10`, "want (x1,y1)"},
		{"unknown keyword", `area (0,0)-(1,1); teleport yes`, "unknown keyword"},
		{"unknown modality", `area (0,0)-(1,1); sense psychic`, "unknown modality"},
		{"bad command", `area (0,0)-(1,1); command anarchy`, "unknown command"},
		{"bad percent", `area (0,0)-(1,1); cover banana%`, "invalid syntax"},
		{"bad rate", `area (0,0)-(1,1); rate fast/min`, "invalid syntax"},
		{"bad duration", `area (0,0)-(1,1); deadline soon`, "invalid duration"},
		{"bad point", `area (a,0)-(1,1)`, "invalid syntax"},
		{"three coordinates", `area (0,0,0)-(1,1)`, "want x,y"},
		{"NaN corner", `area (NaN,200)-(1000,1000)`, "want a finite number"},
		{"infinite corner", `area (0,0)-(+Inf,10)`, "want a finite number"},
		{"negative infinite corner", `area (-Inf,0)-(10,10)`, "want a finite number"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is not a ParseError: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseGoal(t *testing.T) {
	m, err := Parse(`area (0,0)-(500,500); cover 60%; sense seismic`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Goal.Modalities != asset.ModSeismic {
		t.Errorf("modalities = %v", m.Goal.Modalities)
	}
	if _, err := Parse(`cover 60%`); err == nil {
		t.Error("goal without area should fail")
	}
}

// TestParseRejectsNonFiniteAndNegative: every numeric clause refuses
// NaN, ±Inf and negative values with a ParseError naming the clause. A
// NaN rate used to hang an iobtsim -spec run (the incident ticker armed
// at its 1 ns floor) and a NaN cover ran a 1-member composite.
func TestParseRejectsNonFiniteAndNegative(t *testing.T) {
	for _, clause := range []string{
		"rate NaN/min", "rate -3/min", "rate +Inf",
		"cover NaN%", "cover -10%", "cover Inf", "cover 60% x-1",
		"compute NaN", "compute -1",
		"bandwidth +Inf", "bandwidth -2000",
		"trust >= NaN", "trust >= -0.2",
		"risk <= NaN%", "risk <= -5%",
		"members <= NaN", "members <= -5", "members <= Inf",
	} {
		_, err := Parse("area (0,0)-(500,500); " + clause)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Clause != clause {
			t.Errorf("%q: err = %v, want a ParseError naming the clause", clause, err)
		}
	}
	// Zero stays a valid setting.
	if _, err := Parse("area (0,0)-(500,500); rate 0/min; cover 0%; members <= 0"); err != nil {
		t.Errorf("zero values rejected: %v", err)
	}
}

func TestStripCmpVariants(t *testing.T) {
	for _, s := range []string{"< 0.4", "<= 0.4", "> 0.4", ">= 0.4", "= 0.4", "0.4"} {
		if got := stripCmp(s); got != "0.4" {
			t.Errorf("stripCmp(%q) = %q", s, got)
		}
	}
}

func TestPercentPlainNumber(t *testing.T) {
	v, err := parsePercent("0.35")
	if err != nil || v != 0.35 {
		t.Errorf("parsePercent plain = %v, %v", v, err)
	}
}
