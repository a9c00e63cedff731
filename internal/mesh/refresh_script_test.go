package mesh

// The table build carries pairs from build to build, and builds only when
// the table is read, so its tests drive one long-lived network through a
// script of world changes and of ticks that are read and ticks that are
// not. After every read Refresh they compare its table with two things
// that have no history: a network built that instant over the same
// population, and the O(N²) oracle. The same interpreter runs a generated
// script (TestRefreshIsHistoryFree) and fuzzed bytes (FuzzRefreshScript).

import (
	"slices"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// scriptWorld is a population, the network under test, and a virtual
// clock the jam field and the partition are functions of — as
// fault.Injector's link-fault hook is of engine time — without anything
// telling the network that they changed.
type scriptWorld struct {
	terr *geo.Terrain
	pop  *asset.Population
	net  *Network
	tick int

	// stableSum/upSum accumulate the stable share over every read
	// Refresh, and unread counts the Refreshes no read followed.
	stableSum, upSum, unread int
}

func newScriptWorld(seed int64, terr *geo.Terrain, n int) *scriptWorld {
	eng := sim.NewEngine(seed)
	w := &scriptWorld{terr: terr, pop: asset.Generate(terr, asset.DefaultMix(n), eng.Stream("gen"))}
	w.net = w.rebuild()
	return w
}

// jam is a disc that drifts across the field and pulses in strength.
func (w *scriptWorld) jam(p geo.Point) float64 {
	b := w.terr.Bounds
	disc := geo.Circle{
		Center: geo.Point{X: b.Min.X + b.Width()*float64(w.tick%50)/50, Y: (b.Min.Y + b.Max.Y) / 2},
		Radius: b.Width() / 4,
	}
	if !disc.Contains(p) {
		return 0
	}
	return []float64{0.3, 0.6, 1}[w.tick/3%3]
}

// cut is the link-fault hook: a partition line that is up for 15 ticks
// in every 40 and stands somewhere else each time, and nil between.
func (w *scriptWorld) cut() func(a, b geo.Point) bool {
	if w.tick%40 < 25 {
		return nil
	}
	x := w.terr.Bounds.Min.X + w.terr.Bounds.Width()*float64(2+w.tick/40%5)/8
	return func(a, b geo.Point) bool { return (a.X < x) != (b.X < x) }
}

// rebuild returns a network with no past over the world as it is now,
// its table already built.
func (w *scriptWorld) rebuild() *Network {
	cfg := DefaultConfig()
	cfg.StepMobility = false
	net := New(sim.NewEngine(1), w.pop, w.terr, cfg)
	net.SetJamming(w.jam)
	net.SetLinkFault(w.cut)
	net.Refresh()
	net.Nodes()
	return net
}

// Script operations, one (op, arg) byte pair each.
const (
	opStep     = iota // mobility advances arg%4+1 seconds, one Refresh each; with arg&4 set only the last is read
	opIdle            // the clock alone advances: only jam and cut can change
	opKill            // a kill wave of arg%8+1 nodes from id arg
	opRevive          // revive node arg
	opToggle          // flip node arg's Online
	opTeleport        // move a Static node somewhere else
	opRadio           // scale node arg's radio range
	opCount
)

// apply runs one operation and checks the table after every Refresh in
// it that is read.
func (w *scriptWorld) apply(t testing.TB, op, arg byte) {
	id := asset.ID(int(arg) * w.pop.Len() / 256)
	a := w.pop.Get(id)
	switch op % opCount {
	case opStep:
		for s := 0; s < int(arg%4); s++ {
			w.pop.StepMobility(time.Second)
			if arg&4 != 0 {
				w.tick++
				w.net.Refresh()
				w.unread++
				continue
			}
			w.refreshAndCheck(t)
		}
		w.pop.StepMobility(time.Second)
	case opIdle:
	case opKill:
		for k := 0; k <= int(arg%8); k++ {
			w.pop.Kill((id + asset.ID(k*7)) % asset.ID(w.pop.Len()))
		}
	case opRevive:
		w.pop.Revive(id)
	case opToggle:
		a.Online = !a.Online
	case opTeleport:
		for ; int(id) < w.pop.Len(); id++ {
			if s, ok := w.pop.Get(id).Mobility.(*geo.Static); ok {
				b := w.terr.Bounds
				s.P = geo.Point{X: b.Min.X + b.Width()*float64(arg%16)/16, Y: b.Min.Y + b.Height()*float64(arg/16)/16}
				break
			}
		}
	case opRadio:
		a.Caps.RadioRange *= []float64{0.5, 2, 0, 1.25}[arg%4]
	}
	w.refreshAndCheck(t)
}

// refreshAndCheck advances the clock one tick, refreshes, and requires
// the table to equal a history-free rebuild and the brute-force oracle,
// every list ascending.
func (w *scriptWorld) refreshAndCheck(t testing.TB) {
	t.Helper()
	w.tick++
	w.net.Refresh()
	w.net.Nodes()
	for i, e := range w.net.ends {
		if e.up {
			w.upSum++
		}
		if w.net.stable[i] {
			w.stableSum++
		}
	}
	fresh := w.rebuild()
	if !slices.Equal(w.net.nbrStart, fresh.nbrStart) || !slices.Equal(w.net.neighbors, fresh.neighbors) {
		for _, a := range w.pop.All() {
			if got, want := w.net.Neighbors(a.ID), fresh.Neighbors(a.ID); !slices.Equal(got, want) {
				t.Fatalf("tick %d: carried Neighbors(%d) = %v, rebuilt from nothing %v", w.tick, a.ID, got, want)
			}
		}
		t.Fatalf("tick %d: tables differ in layout only", w.tick)
	}
	var want []NodeID
	for _, a := range w.pop.All() {
		want = want[:0]
		for _, b := range w.pop.All() {
			if a != b && refLinked(w.net, a, b) {
				want = append(want, b.ID)
			}
		}
		if got := w.net.Neighbors(a.ID); !slices.Equal(got, want) {
			t.Fatalf("tick %d: Neighbors(%d) = %v, oracle (ascending) %v", w.tick, a.ID, got, want)
		}
	}
}

// historyScript is the generated script: mostly mobility steps, so that
// waypoint walkers arrive, pause and set off again, with every other
// operation mixed in.
func historyScript(seed int64, ops int) []byte {
	rng := sim.NewRNG(seed)
	script := make([]byte, 0, 2*ops)
	for i := 0; i < ops; i++ {
		op := byte(opStep)
		if rng.Bool(0.4) {
			op = byte(rng.Intn(opCount))
		}
		script = append(script, op, byte(rng.Intn(256)))
	}
	return script
}

func (w *scriptWorld) run(t testing.TB, script []byte) {
	for ; len(script) >= 2; script = script[2:] {
		w.apply(t, script[0], script[1])
	}
}

// The build carries the geometry of pairs that did not move since the
// last build; the table must not show it. Over 200+ ticks of everything
// that can change a link — mobility with waypoint pauses, kill waves,
// Revive, Online toggles, a teleported Static, RadioRange edits, and a jam
// field and a partition that change with the clock alone — with runs of
// ticks nobody reads between, it equals, after every read Refresh, the
// table of a network built that instant and the brute-force oracle.
func TestRefreshIsHistoryFree(t *testing.T) {
	terrains := []*geo.Terrain{
		geo.NewOpenTerrain(1500, 1500),
		geo.NewUrbanTerrain(1200, 1200),
		geo.NewSparseTerrain(2000, 2000),
	}
	ops := 120
	if testing.Short() {
		ops = 30
	}
	for i, terr := range terrains {
		w := newScriptWorld(int64(i+1), terr, 200)
		w.run(t, historyScript(int64(i+1), ops))
		if !testing.Short() && (w.tick < 200 || w.unread < 30) {
			t.Errorf("%s: only %d ticks, %d of them unread", terr.Kind, w.tick, w.unread)
		}
		// Both paths must have run: some pairs carried, some rescanned.
		share := float64(w.stableSum) / float64(w.upSum)
		if share < 0.2 || share > 0.95 {
			t.Errorf("%s: stable share %.3f over %d ticks: the carry or the scan went untested", terr.Kind, share, w.tick)
		}
		if len(w.net.neighbors) == 0 {
			t.Errorf("%s: no links left at the end, the last ticks checked nothing", terr.Kind)
		}
	}
}

// FuzzRefreshScript feeds the same interpreter from bytes: whatever the
// order of kills, revivals, teleports, radio edits, idle ticks and ticks
// nobody reads, the carried table equals the rebuilt one and the oracle.
func FuzzRefreshScript(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(byte(seed), historyScript(seed, 24))
	}
	f.Add(byte(0), []byte{opKill, 0, opRevive, 0, opToggle, 0, opToggle, 0, opRadio, 2, opRadio, 1})
	f.Fuzz(func(t *testing.T, world byte, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		terr := []*geo.Terrain{
			geo.NewOpenTerrain(600, 600),
			geo.NewUrbanTerrain(500, 500),
			geo.NewSparseTerrain(800, 800),
		}[world%3]
		newScriptWorld(int64(world), terr, 60).run(t, script)
	})
}
