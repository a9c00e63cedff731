package fault

import (
	"slices"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

// cutTarget is a two-node target on a 1000 m square: Apply needs a
// network to install its hooks on, and the probes need nothing else.
func cutTarget(seed int64) Target {
	eng := sim.NewEngine(seed)
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	caps := asset.DefaultCaps(asset.ClassSensor)
	for i := 0; i < 2; i++ {
		a := &asset.Asset{Class: asset.ClassSensor, Caps: caps, Online: true,
			Mobility: &geo.Static{P: geo.Point{X: 450 + 100*float64(i), Y: 500}}}
		a.Energy = caps.EnergyCap
		pop.Add(a)
	}
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false
	net := mesh.New(eng, pop, terr, cfg)
	return Target{Eng: eng, Pop: pop, Net: net, Jam: attack.NewField(eng)}
}

// cutPlan decodes four bytes per fault: what it is, its onset, its
// length and where it cuts. Onsets fall on a 5 s grid, so heals land
// before, at and after partition onsets and window ends. Every partition
// cuts something, as Parse requires; Corrupt is a windowed fault of
// another kind that the hook must ignore.
func cutPlan(data []byte) *Plan {
	p := &Plan{Name: "linkcut"}
	for ; len(data) >= 4 && len(p.Faults) < 12; data = data[4:] {
		what, at, span, where := data[0], data[1], data[2], data[3]
		f := Fault{At: time.Duration(at%16) * 5 * time.Second}
		switch what % 4 {
		case 0:
			f.Kind = Partition
			f.X = 1 + float64(where)*4
		case 1:
			f.Kind = Partition
			f.Area = geo.Circle{
				Center: geo.Point{X: float64(where) * 4, Y: float64(span) * 4},
				Radius: 20 + float64(at/16)*30,
			}
		case 2:
			f.Kind = Heal
		case 3:
			f.Kind = Corrupt
			f.Prob = 1
		}
		if f.windowed() && span%4 != 0 {
			f.Duration = time.Duration(span%4) * 10 * time.Second
		}
		p.Add(f)
	}
	return p
}

// cutInstants returns every onset, end and heal boundary of p, a
// nanosecond either side of each, and the midpoints between them.
func cutInstants(p *Plan) []time.Duration {
	var edges []time.Duration
	for _, f := range p.Faults {
		edges = append(edges, f.At)
		if f.windowed() && f.Duration > 0 {
			edges = append(edges, f.At+f.Duration)
		}
	}
	edges = append(edges, 0, 200*time.Second)
	slices.Sort(edges)
	edges = slices.Compact(edges)
	var out []time.Duration
	for i, e := range edges {
		out = append(out, max(e-1, 0), e, e+1)
		if i+1 < len(edges) {
			out = append(out, (e+edges[i+1])/2)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// oracleActive and oracleCut are the per-pair rule the hook replaced,
// written out: a link is cut when any partition whose window covers now
// and that no heal in [onset, now] has ended separates its endpoints.
func oracleActive(p *Plan, f *Fault, now time.Duration) bool {
	if f.Kind != Partition || now < f.At || (f.Duration != 0 && now >= f.At+f.Duration) {
		return false
	}
	for _, h := range p.Faults {
		if h.Kind == Heal && h.At >= f.At && h.At <= now {
			return false
		}
	}
	return true
}

func oracleCut(p *Plan, now time.Duration, a, b geo.Point) bool {
	for i := range p.Faults {
		f := &p.Faults[i]
		if !oracleActive(p, f, now) {
			continue
		}
		if f.X != 0 {
			if (a.X < f.X) != (b.X < f.X) {
				return true
			}
			continue
		}
		if f.Area.Radius > 0 && f.Area.Contains(a) != f.Area.Contains(b) {
			return true
		}
	}
	return false
}

// cutProbes returns points on and either side of every partition's line
// and circle, and random points over the map.
func cutProbes(p *Plan, rng *sim.RNG) []geo.Point {
	var pts []geo.Point
	for _, f := range p.Faults {
		if f.Kind != Partition {
			continue
		}
		for _, d := range []float64{-1e-9, 0, 1} {
			if f.X != 0 {
				pts = append(pts, geo.Point{X: f.X + d, Y: rng.Uniform(0, 1000)})
			} else {
				pts = append(pts, geo.Point{X: f.Area.Center.X + f.Area.Radius + d, Y: f.Area.Center.Y})
			}
		}
	}
	for i := 0; i < 12; i++ {
		pts = append(pts, geo.Point{X: rng.Uniform(-50, 1050), Y: rng.Uniform(-50, 1050)})
	}
	return pts
}

// FuzzLinkCut holds the once-per-instant hook to the per-pair rule it
// replaced: at every boundary of a random plan of line and area
// partitions, windowed and unbounded, with heals around their onsets,
// the predicate is nil exactly when no active, un-healed partition
// exists, and otherwise agrees with the oracle, both ways round, on
// every sampled pair of positions. The predicate of the previous instant,
// asked again after this instant's ask, still answers for its own.
func FuzzLinkCut(f *testing.F) {
	f.Add([]byte{
		0, 2, 0, 100, // line x=401 from 10 s, unbounded
		2, 1, 0, 0, // heal at 5 s: before the onset, ends nothing
		2, 2, 0, 0, // heal at 10 s: at the onset, ends it
		0, 4, 1, 50, // line x=201 from 20 s for 10 s
		2, 5, 0, 0, // heal at 25 s: after that onset, inside its window
	})
	f.Add([]byte{
		1, 18, 2, 125, // circle at (500, 8) r=50 from 10 s for 20 s
		1, 35, 0, 60, // circle at (240, 0) r=80 from 15 s, unbounded
		2, 6, 0, 0, // heal at 30 s: the first window's end
		3, 1, 3, 0, // corrupt from 5 s for 30 s: not a partition
		0, 9, 0, 200, // line x=801 from 45 s, unbounded: after every heal
	})
	f.Add([]byte{3, 0, 1, 0, 2, 3, 0, 0}) // no partition at all
	for seed := int64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 4*(2+rng.Intn(8)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan := cutPlan(data)
		if len(plan.Faults) == 0 {
			return
		}
		tgt := cutTarget(1)
		inj := Apply(tgt, plan)
		rng := sim.NewRNG(int64(len(data)))
		pts := cutProbes(plan, rng)
		var held func(a, b geo.Point) bool
		var heldAt time.Duration
		for _, at := range cutInstants(plan) {
			tgt.Eng.ScheduleAt(at, "test.probe", func() {
				now := tgt.Eng.Now()
				active := false
				for i := range plan.Faults {
					active = active || oracleActive(plan, &plan.Faults[i], now)
				}
				cut := inj.cutNow()
				if (cut == nil) == active {
					t.Fatalf("at %v: predicate nil = %v with an active partition = %v\n%s", now, cut == nil, active, plan)
				}
				for _, a := range pts {
					for _, b := range pts {
						if held != nil && held(a, b) != oracleCut(plan, heldAt, a, b) {
							t.Fatalf("at %v: the predicate of %v now says cut(%v, %v) = %v, its oracle %v\n%s",
								now, heldAt, a, b, held(a, b), oracleCut(plan, heldAt, a, b), plan)
						}
						if cut == nil {
							continue
						}
						if got, want := cut(a, b), oracleCut(plan, now, a, b); got != want || cut(b, a) != got {
							t.Fatalf("at %v: cut(%v, %v) = %v, reversed %v, oracle %v\n%s", now, a, b, got, cut(b, a), want, plan)
						}
					}
				}
				held, heldAt = cut, now
			})
		}
		if err := tgt.Eng.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

// Asking the hook allocates nothing, with partitions active and with
// none: the network asks on every Refresh and every Linked call.
func TestLinkCutAskAllocatesNothing(t *testing.T) {
	tgt := cutTarget(1)
	plan := (&Plan{Name: "asks"}).
		Add(Fault{Kind: Partition, At: 10 * time.Second, Duration: 30 * time.Second, X: 500}).
		Add(Fault{Kind: Partition, At: 20 * time.Second, Area: geo.Circle{Center: geo.Point{X: 500, Y: 500}, Radius: 200}}).
		Add(Fault{Kind: Heal, At: 60 * time.Second})
	inj := Apply(tgt, plan)
	for _, tc := range []struct {
		at   time.Duration
		cuts int
	}{{5 * time.Second, 0}, {25 * time.Second, 2}, {45 * time.Second, 1}, {70 * time.Second, 0}} {
		var allocs float64
		var cut func(a, b geo.Point) bool
		tgt.Eng.ScheduleAt(tc.at, "test.ask", func() {
			cut = inj.cutNow()
			allocs = testing.AllocsPerRun(100, func() { inj.cutNow() })
		})
		if err := tgt.Eng.Run(tc.at - tgt.Eng.Now() + 1); err != nil {
			t.Fatal(err)
		}
		if (cut != nil) != (tc.cuts > 0) || len(inj.cuts) != tc.cuts {
			t.Errorf("at %v: %d partitions in force, want %d", tc.at, len(inj.cuts), tc.cuts)
		}
		if allocs != 0 {
			t.Errorf("at %v: an ask allocated %v times, want 0", tc.at, allocs)
		}
	}
}

// A predicate keeps the answers of the instant it was asked at: the
// network may build its table from it after later asks. Here the ask at
// 15 s sees one line, at 25 s two, at 35 s (after the heal) none, and
// each predicate still judges a pair across each line as at its own
// instant.
func TestCutKeepsItsInstant(t *testing.T) {
	tgt := cutTarget(1)
	plan := (&Plan{Name: "held"}).
		Add(Fault{Kind: Partition, At: 10 * time.Second, X: 300}).
		Add(Fault{Kind: Partition, At: 20 * time.Second, X: 700}).
		Add(Fault{Kind: Heal, At: 30 * time.Second})
	inj := Apply(tgt, plan)
	west := [2]geo.Point{{X: 200, Y: 500}, {X: 400, Y: 500}} // across x=300
	east := [2]geo.Point{{X: 600, Y: 500}, {X: 800, Y: 500}} // across x=700
	var held []func(a, b geo.Point) bool
	for _, at := range []time.Duration{15 * time.Second, 25 * time.Second, 35 * time.Second} {
		tgt.Eng.ScheduleAt(at, "test.ask", func() { held = append(held, inj.cutNow()) })
	}
	if err := tgt.Eng.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(held) != 3 || held[0] == nil || held[1] == nil || held[2] != nil {
		t.Fatalf("asks at 15 s, 25 s, 35 s gave %d predicates, nil at 35 s = %v: want two, then nil after the heal",
			len(held), len(held) == 3 && held[2] == nil)
	}
	for i, want := range [][2]bool{{true, false}, {true, true}} {
		if got := [2]bool{held[i](west[0], west[1]), held[i](east[0], east[1])}; got != want {
			t.Errorf("predicate %d after later asks cuts (x=300, x=700) = %v, want %v", i, got, want)
		}
	}
}
