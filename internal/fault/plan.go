package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"iobt/internal/geo"
)

// Plan DSL: one fault per line, `verb key=value ...`, with `#` comments
// and blank lines ignored. Durations use Go syntax (30s, 2m); lengths
// are meters. An optional leading `plan <name>` line names the plan; the
// name is the rest of the line (Scale names "standard x0.50"), and it
// seeds the plan's fault stream.
//
//	plan standard
//	partition at=30s for=60s x=600
//	partition at=30s for=60s cx=500 cy=500 r=250
//	heal      at=2m
//	jam       at=60s for=60s cx=600 cy=600 r=300 intensity=0.9
//	jam       region at=60s for=60s x0=200 y0=200 x1=600 y1=600 intensity=0.9
//	kill      at=90s frac=0.33 of=composite
//	cploss    at=95s
//	corrupt   at=2m for=30s prob=0.2
//	delay     at=2m for=30s add=500ms prob=0.5
//	churn     at=3m for=60s rate=0.2
//	smoke     at=3m for=40s cx=500 cy=500 r=200
//	crash     post at=2m
//	failover  warm at=2m30s
//	failover  cold at=2m30s
//
// The crash and failover verbs take a positional operand (the crash
// target, the promotion disposition) before the key=value fields; jam
// takes an optional `region` operand selecting a rectangular footprint
// (x0/y0/x1/y1) instead of a circular one. The heal verb ends, at its
// own `at`, every partition that began at or before that instant —
// including unbounded ones (`partition at=30s x=600` with no for=). A
// partition must cut something: it needs a nonzero x= (a line) or a
// positive r= (a circle's boundary).

// Parse reads a plan in the DSL above.
func Parse(src string) (*Plan, error) {
	p := &Plan{Name: "custom"}
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		verb := strings.ToLower(fields[0])
		if verb == "plan" {
			if len(fields) > 1 {
				p.Name = strings.Join(fields[1:], " ")
			}
			continue
		}
		f, err := parseFault(verb, fields[1:])
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", ln+1, err)
		}
		p.Faults = append(p.Faults, f)
	}
	if len(p.Faults) == 0 {
		return nil, fmt.Errorf("fault: plan has no faults")
	}
	return p, nil
}

func parseFault(verb string, kvs []string) (Fault, error) {
	var f Fault
	switch verb {
	case "partition":
		f.Kind = Partition
	case "heal":
		f.Kind = Heal
	case "jam":
		f.Kind = JamWave
	case "kill":
		f.Kind = KillWave
	case "cploss":
		f.Kind = CommandPostLoss
	case "corrupt":
		f.Kind = Corrupt
	case "delay":
		f.Kind = Delay
	case "churn":
		f.Kind = ChurnSpike
	case "smoke":
		f.Kind = Smoke
	case "crash":
		f.Kind = CrashPost
	case "failover":
		f.Kind = Failover
	default:
		return f, fmt.Errorf("unknown fault verb %q", verb)
	}
	// Positional operands come before the key=value fields.
	switch f.Kind {
	case CrashPost:
		if len(kvs) == 0 || strings.ToLower(kvs[0]) != "post" {
			return f, fmt.Errorf("crash: want operand \"post\" (crash post at=...)")
		}
		kvs = kvs[1:]
	case Failover:
		if len(kvs) == 0 {
			return f, fmt.Errorf("failover: want operand \"warm\" or \"cold\"")
		}
		switch strings.ToLower(kvs[0]) {
		case "warm":
			f.Warm = true
		case "cold":
			f.Warm = false
		default:
			return f, fmt.Errorf("failover: want operand \"warm\" or \"cold\", got %q", kvs[0])
		}
		kvs = kvs[1:]
	case JamWave:
		// Optional `region` operand: a rectangular footprint given by
		// x0/y0/x1/y1 instead of the circular cx/cy/r one.
		if len(kvs) > 0 && strings.ToLower(kvs[0]) == "region" {
			kvs = kvs[1:]
		}
	default:
		// The remaining kinds take no positional operands; everything
		// after the verb is key=value fields.
	}
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("malformed field %q (want key=value)", kv)
		}
		var err error
		switch strings.ToLower(k) {
		case "at":
			f.At, err = time.ParseDuration(v)
		case "for":
			f.Duration, err = time.ParseDuration(v)
		case "add":
			f.Extra, err = time.ParseDuration(v)
		case "x":
			f.X, err = parseNum(v)
		case "cx":
			f.Area.Center.X, err = parseNum(v)
		case "cy":
			f.Area.Center.Y, err = parseNum(v)
		case "r":
			f.Area.Radius, err = parseNum(v)
		case "x0":
			f.Region.Min.X, err = parseNum(v)
		case "y0":
			f.Region.Min.Y, err = parseNum(v)
		case "x1":
			f.Region.Max.X, err = parseNum(v)
		case "y1":
			f.Region.Max.Y, err = parseNum(v)
		case "intensity":
			f.Intensity, err = parseNum(v)
		case "frac":
			f.Fraction, err = parseNum(v)
		case "rate":
			f.Rate, err = parseNum(v)
		case "prob":
			f.Prob, err = parseNum(v)
		case "of":
			switch strings.ToLower(v) {
			case "composite":
				f.Select = SelectComposite
			case "blue":
				f.Select = SelectBlue
			default:
				err = fmt.Errorf("unknown selector %q", v)
			}
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return f, fmt.Errorf("%s %s: %v", verb, kv, err)
		}
	}
	if f.Kind == Partition && f.X == 0 && !(f.Area.Radius > 0) {
		return f, fmt.Errorf("partition at=%s cuts nothing: want a nonzero x= or a positive r=", f.At)
	}
	return f, nil
}

// String renders the plan back into the DSL (parseable round trip).
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s\n", p.Name)
	for _, f := range p.Faults {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one fault as a DSL line.
func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	switch f.Kind {
	case CrashPost:
		b.WriteString(" post")
	case Failover:
		if f.Warm {
			b.WriteString(" warm")
		} else {
			b.WriteString(" cold")
		}
	case JamWave:
		if f.Region != (geo.Rect{}) {
			b.WriteString(" region")
		}
	default:
		// Mirrors the parser: only crash, failover, and rectangular
		// jam carry positional operands.
	}
	fmt.Fprintf(&b, " at=%s", f.At)
	// Every nonzero field is emitted — even ones inert for this kind —
	// so that String is a faithful inverse of Parse and the fuzzed
	// parse→format→parse round trip is exact.
	if f.Duration != 0 {
		fmt.Fprintf(&b, " for=%s", f.Duration)
	}
	if f.X != 0 {
		fmt.Fprintf(&b, " x=%s", ftoa(f.X))
	}
	if f.Area.Center.X != 0 || f.Area.Center.Y != 0 || f.Area.Radius != 0 {
		fmt.Fprintf(&b, " cx=%s cy=%s r=%s",
			ftoa(f.Area.Center.X), ftoa(f.Area.Center.Y), ftoa(f.Area.Radius))
	}
	if f.Region != (geo.Rect{}) {
		fmt.Fprintf(&b, " x0=%s y0=%s x1=%s y1=%s",
			ftoa(f.Region.Min.X), ftoa(f.Region.Min.Y), ftoa(f.Region.Max.X), ftoa(f.Region.Max.Y))
	}
	if f.Intensity != 0 {
		fmt.Fprintf(&b, " intensity=%s", ftoa(f.Intensity))
	}
	if f.Fraction != 0 {
		fmt.Fprintf(&b, " frac=%s", ftoa(f.Fraction))
	}
	if f.Rate != 0 {
		fmt.Fprintf(&b, " rate=%s", ftoa(f.Rate))
	}
	if f.Prob != 0 {
		fmt.Fprintf(&b, " prob=%s", ftoa(f.Prob))
	}
	if f.Extra != 0 {
		fmt.Fprintf(&b, " add=%s", f.Extra)
	}
	if f.Select == SelectComposite {
		b.WriteString(" of=composite")
	}
	return b.String()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseNum parses a float field, rejecting NaN (a NaN fault parameter
// is always a mistake and breaks plan comparability).
func parseNum(v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(x) {
		return 0, fmt.Errorf("NaN is not a valid value")
	}
	return x, nil
}

// StandardPlan is the harness's reference disruption for a square map
// of the given side length: a 60s mid-map partition, a four-minute
// map-wide jam wave (a communications blackout at full intensity), a
// kill wave destroying 1/3 of the composite, and loss of the command
// post. It is the plan behind E14 and the `-faults standard` flag;
// Scale sweeps its severity.
func StandardPlan(size float64) *Plan {
	center := geo.Point{X: size / 2, Y: size / 2}
	p := &Plan{Name: "standard"}
	p.Add(Fault{Kind: Partition, At: 30 * time.Second, Duration: 60 * time.Second, X: size / 2})
	p.Add(Fault{Kind: JamWave, At: 60 * time.Second, Duration: 4 * time.Minute,
		Area: geo.Circle{Center: center, Radius: size}, Intensity: 0.9})
	p.Add(Fault{Kind: KillWave, At: 90 * time.Second, Fraction: 1.0 / 3, Select: SelectComposite})
	p.Add(Fault{Kind: CommandPostLoss, At: 95 * time.Second})
	return p
}
