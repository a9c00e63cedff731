// Package intent implements the "reasoning from goals to means" front
// end (paper §III.B): a small mission-specification language in which a
// commander states intent declaratively — what to sense, where, how
// well, with what resources and risk tolerance — which is parsed into
// the machine-checkable compose.Goal the synthesis layer consumes. It
// is the macroprogramming entry point the paper cites ([5]-[7]): intent
// in, composed capability out.
//
// Grammar (one clause per semicolon or newline, case-insensitive
// keywords):
//
//	mission "name"
//	area (x1,y1)-(x2,y2)
//	cover 70% [x2]                 // coverage fraction, optional k-redundancy
//	sense visual+thermal           // required modalities
//	compute 5000                   // aggregate MIPS
//	bandwidth 2000                 // aggregate kb/s
//	latency < 100ms                // worst-case composite latency
//	trust >= 0.4                   // candidate trust floor
//	risk <= 20%                    // max gray/low-trust member fraction
//	members <= 50                  // composite size cap
//	command intent | command hierarchy levels 3
//	deadline 30s                   // incident deadline
//	rate 12/min                    // incident arrival rate
package intent

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/core"
	"iobt/internal/geo"
)

// ParseError reports where a spec failed to parse.
type ParseError struct {
	Clause string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("intent: clause %q: %s", e.Clause, e.Reason)
}

// modalityNames maps spec tokens to modality bits.
var modalityNames = map[string]asset.Modality{
	"visual":   asset.ModVisual,
	"acoustic": asset.ModAcoustic,
	"seismic":  asset.ModSeismic,
	"rf":       asset.ModRF,
	"thermal":  asset.ModThermal,
	"chemical": asset.ModChemical,
	"physio":   asset.ModPhysiological,
	"radar":    asset.ModRadar,
	"lidar":    asset.ModLidar,
}

// Parse turns a mission spec into a core.Mission. Unstated fields keep
// core.DefaultMission defaults; an area clause is mandatory.
func Parse(spec string) (core.Mission, error) {
	var (
		m       core.Mission
		hasArea bool
	)
	// Defaults come from core; the area placeholder is filled below.
	m = core.DefaultMission(geo.Rect{})

	for _, clause := range splitClauses(spec) {
		if clause == "" {
			continue
		}
		fields := strings.Fields(clause)
		key := strings.ToLower(fields[0])
		rest := strings.TrimSpace(clause[len(fields[0]):])
		var err error
		switch key {
		case "mission":
			m.Goal.Name = strings.Trim(rest, `" `)
		case "area":
			m.Goal.Area, err = parseArea(rest)
			hasArea = err == nil
		case "cover":
			err = parseCover(&m.Goal, rest)
		case "sense":
			m.Goal.Modalities, err = parseModalities(rest)
		case "compute":
			m.Goal.Compute, err = parseFloat(rest)
		case "bandwidth":
			m.Goal.Bandwidth, err = parseFloat(rest)
		case "latency":
			m.Goal.MaxLatency, err = parseDuration(stripCmp(rest))
		case "trust":
			m.Goal.MinTrust, err = parseFloat(stripCmp(rest))
		case "risk":
			m.Goal.MaxRiskFrac, err = parsePercent(stripCmp(rest))
		case "members":
			var v float64
			v, err = parseFloat(stripCmp(rest))
			m.Goal.MaxMembers = int(v)
		case "command":
			err = parseCommand(&m, rest)
		case "deadline":
			m.IncidentDeadline, err = parseDuration(rest)
		case "rate":
			m.IncidentsPerMin, err = parseRate(rest)
		default:
			err = fmt.Errorf("unknown keyword %q", key)
		}
		if err != nil {
			return core.Mission{}, &ParseError{Clause: clause, Reason: err.Error()}
		}
	}
	if !hasArea {
		return core.Mission{}, &ParseError{Clause: spec, Reason: "missing mandatory 'area' clause"}
	}
	return m, nil
}

func splitClauses(spec string) []string {
	raw := strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == '\n' })
	out := make([]string, 0, len(raw))
	for _, c := range raw {
		c = strings.TrimSpace(c)
		if c != "" && !strings.HasPrefix(c, "#") {
			out = append(out, c)
		}
	}
	return out
}

// parseArea parses "(x1,y1)-(x2,y2)".
func parseArea(s string) (geo.Rect, error) {
	s = strings.ReplaceAll(s, " ", "")
	parts := strings.Split(s, ")-(")
	if len(parts) != 2 {
		return geo.Rect{}, fmt.Errorf("want (x1,y1)-(x2,y2), got %q", s)
	}
	p1, err := parsePoint(strings.TrimPrefix(parts[0], "("))
	if err != nil {
		return geo.Rect{}, err
	}
	p2, err := parsePoint(strings.TrimSuffix(parts[1], ")"))
	if err != nil {
		return geo.Rect{}, err
	}
	r := geo.NewRect(p1, p2)
	if r.Area() <= 0 {
		return geo.Rect{}, fmt.Errorf("degenerate area %v", r)
	}
	return r, nil
}

func parsePoint(s string) (geo.Point, error) {
	xs, ys, ok := strings.Cut(s, ",")
	if !ok || strings.Contains(ys, ",") {
		return geo.Point{}, fmt.Errorf("want x,y, got %q", s)
	}
	x, errX := parseFinite(xs)
	y, errY := parseFinite(ys)
	return geo.Point{X: x, Y: y}, errors.Join(errX, errY)
}

// parseCover parses "70%" or "70% x2" (k-coverage).
func parseCover(g *compose.Goal, s string) error {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return fmt.Errorf("want percentage")
	}
	frac, err := parsePercent(fields[0])
	if err != nil {
		return err
	}
	g.CoverageFrac = frac
	if len(fields) > 1 {
		k := strings.TrimPrefix(strings.ToLower(fields[1]), "x")
		red, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("redundancy %q: %v", fields[1], err)
		}
		if red < 0 {
			return fmt.Errorf("redundancy %q is negative", fields[1])
		}
		g.Redundancy = red
	}
	return nil
}

func parseModalities(s string) (asset.Modality, error) {
	var m asset.Modality
	for _, tok := range strings.Split(strings.ToLower(strings.TrimSpace(s)), "+") {
		bit, ok := modalityNames[strings.TrimSpace(tok)]
		if !ok {
			return 0, fmt.Errorf("unknown modality %q", tok)
		}
		m |= bit
	}
	return m, nil
}

func parseCommand(m *core.Mission, s string) error {
	fields := strings.Fields(strings.ToLower(s))
	if len(fields) == 0 {
		return fmt.Errorf("want intent|hierarchy")
	}
	switch fields[0] {
	case "intent":
		m.Command = core.CommandIntent
	case "hierarchy":
		m.Command = core.CommandHierarchy
		if len(fields) == 3 && fields[1] == "levels" {
			lv, err := strconv.Atoi(fields[2])
			if err != nil {
				return err
			}
			m.HierarchyLevels = lv
		}
	default:
		return fmt.Errorf("unknown command model %q", fields[0])
	}
	return nil
}

// parseRate parses "12/min" or a bare number (per minute).
func parseRate(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "/min")
	return parseFloat(s)
}

// stripCmp removes a leading comparison operator (<, <=, >, >=, =).
func stripCmp(s string) string {
	s = strings.TrimSpace(s)
	for _, op := range []string{"<=", ">=", "<", ">", "="} {
		if strings.HasPrefix(s, op) {
			return strings.TrimSpace(s[len(op):])
		}
	}
	return s
}

func parsePercent(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		v, err := parseFloat(pct)
		return v / 100, err
	}
	return parseFloat(s)
}

// parseFloat parses a finite, non-negative number. Every numeric clause
// is a rate, fraction, capacity, trust floor or count, so NaN, ±Inf or a
// negative value is a spec error, not a setting: a NaN rate would arm
// the incident ticker at its 1 ns floor and the mission would never end.
func parseFloat(s string) (float64, error) {
	v, err := parseFinite(s)
	if err == nil && v < 0 {
		err = fmt.Errorf("want a non-negative number, got %q", s)
	}
	return v, err
}

// parseFinite parses a finite number. An area corner may be negative,
// but a NaN one makes an area that holds no point, which only synthesis
// would refuse.
func parseFinite(s string) (float64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("want a finite number, got %q", s)
	}
	return v, err
}

func parseDuration(s string) (time.Duration, error) {
	return time.ParseDuration(strings.TrimSpace(s))
}
