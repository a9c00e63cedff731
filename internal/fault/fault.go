// Package fault is the unified fault-injection subsystem: a
// deterministic, composable Plan of scheduled battlefield disruptions
// (network partitions, jam waves, kill waves, command-post loss,
// message corruption and delay, churn spikes, obscurant smoke) that
// compiles onto the sim engine, plus Run, which wraps a mission run with
// goodput sampling and produces a per-fault recovery report
// (time-to-detect, time-to-recover, goodput during degradation).
//
// The paper treats degradation under attack as the normal operating
// regime — missions must "re-assemble upon damage within an
// appropriately short time" — so every subsystem needs a single place
// from which that damage can be injected reproducibly. All randomness
// comes from engine streams: the same seed and plan produce the same
// fault schedule, byte for byte.
package fault

import (
	"fmt"
	"sort"
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
)

// Kind enumerates fault types.
type Kind int

// Fault kinds.
const (
	// Partition severs links: those crossing the vertical line x=X when
	// X is set, otherwise those crossing the boundary of Area.
	Partition Kind = iota + 1
	// JamWave activates a circular jammer for the fault window.
	JamWave
	// KillWave destroys a fraction of the selected population at At.
	KillWave
	// CommandPostLoss destroys the current command post at At.
	CommandPostLoss
	// Corrupt mangles frames in flight with probability Prob during the
	// window.
	Corrupt
	// Delay adds Extra latency per hop with probability Prob during the
	// window.
	Delay
	// ChurnSpike kills Rate (fraction/min) of the alive blue population
	// on every tick of the window — a burst of attrition on top of any
	// baseline churn.
	ChurnSpike
	// Smoke raises a visual obscurant over Area for the window.
	Smoke
	// CrashPost destroys the command post and the state that lived on it
	// (`crash post` in the DSL). Unlike CommandPostLoss — which only
	// kills the node and lets the runtime silently re-promote — a crash
	// also disables implicit re-promotion, so the mission has no post
	// until a Failover fault (or nothing) decides the disposition.
	CrashPost
	// Failover promotes a successor command post after a CrashPost
	// (`failover warm|cold`). Warm restores the last checkpoint and
	// requeues the checkpointed ARQ window; cold rebuilds from scratch.
	Failover
	// Heal ends, at At, every partition that began at or before At —
	// including unbounded ones (`partition` with no `for=`), which is
	// what makes "partition … heal" scenarios expressible: the gossip
	// experiments cut the map indefinitely and then reconnect it.
	Heal
)

// String names the kind (also the plan-DSL verb).
func (k Kind) String() string {
	switch k {
	case Partition:
		return "partition"
	case JamWave:
		return "jam"
	case KillWave:
		return "kill"
	case CommandPostLoss:
		return "cploss"
	case Corrupt:
		return "corrupt"
	case Delay:
		return "delay"
	case ChurnSpike:
		return "churn"
	case Smoke:
		return "smoke"
	case CrashPost:
		return "crash"
	case Failover:
		return "failover"
	case Heal:
		return "heal"
	default:
		return "unknown"
	}
}

// Selector names the population a KillWave draws victims from.
type Selector int

// Selectors.
const (
	// SelectBlue targets the alive blue population (inside Area when its
	// radius is positive).
	SelectBlue Selector = iota
	// SelectComposite targets the current mission composite, resolved
	// through Target.Composite.
	SelectComposite
)

// String names the selector.
func (s Selector) String() string {
	if s == SelectComposite {
		return "composite"
	}
	return "blue"
}

// Fault is one scheduled disruption. Fields are interpreted per Kind;
// unused fields are ignored.
type Fault struct {
	Kind Kind
	// At is the onset in virtual time.
	At time.Duration
	// Duration bounds windowed faults; zero means "until the horizon".
	Duration time.Duration
	// Area scopes geographic faults (jam, smoke, area partition,
	// area-scoped kill).
	Area geo.Circle
	// X, when nonzero, makes a Partition cut all links crossing the
	// vertical line x=X.
	X float64
	// Region scopes a rectangular jam footprint (`jam region`); it is
	// consulted only when Area is unset.
	Region geo.Rect
	// Intensity is the jam strength in [0,1].
	Intensity float64
	// Fraction is the kill-wave victim fraction in [0,1].
	Fraction float64
	// Rate is the churn-spike failure rate (fraction of alive blue
	// assets per minute).
	Rate float64
	// Prob is the per-hop probability for Corrupt/Delay (default 1).
	Prob float64
	// Extra is the added per-hop latency for Delay.
	Extra time.Duration
	// Select picks the kill-wave victim population.
	Select Selector
	// Warm selects the Failover disposition: restore from the last
	// checkpoint (true) vs. rebuild from scratch (false).
	Warm bool
}

// windowed reports whether the fault is an interval (vs. an instant).
func (f Fault) windowed() bool {
	// Every Kind is listed explicitly — no default — so that adding a
	// variant without deciding its windowing is an enumcase finding,
	// not a silent "instant".
	switch f.Kind {
	case Partition, JamWave, Corrupt, Delay, ChurnSpike, Smoke:
		return true
	case KillWave, CommandPostLoss, CrashPost, Failover, Heal:
		return false
	}
	return false
}

// activeAt reports whether a windowed fault covers time now.
func (f Fault) activeAt(now time.Duration) bool {
	if now < f.At {
		return false
	}
	return f.Duration == 0 || now < f.At+f.Duration
}

// End returns the end of the fault's effect window: At for instants,
// zero ("never") for windowed faults with no Duration.
func (f Fault) End() time.Duration {
	if !f.windowed() {
		return f.At
	}
	if f.Duration == 0 {
		return 0
	}
	return f.At + f.Duration
}

// Plan is an ordered set of faults. Order in Faults is preserved for
// reporting; scheduling is by each fault's At.
type Plan struct {
	Name   string
	Faults []Fault
}

// Add appends a fault and returns the plan for chaining.
func (p *Plan) Add(f Fault) *Plan {
	p.Faults = append(p.Faults, f)
	return p
}

// Scale returns a copy with jam intensities, kill fractions, corruption
// and delay probabilities, and churn rates multiplied by s (clamped to
// [0,1] where probabilities are concerned). It is the E14 knob: one
// plan swept over fault intensities.
func (p *Plan) Scale(s float64) *Plan {
	out := &Plan{Name: fmt.Sprintf("%s x%.2f", p.Name, s)}
	for _, f := range p.Faults {
		f.Intensity = clamp01(f.Intensity * s)
		f.Fraction = clamp01(f.Fraction * s)
		f.Prob = clamp01(f.Prob * s)
		f.Rate *= s
		out.Faults = append(out.Faults, f)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Target bundles the world surfaces faults act on and the mission
// counters Run samples. core.World.FaultTarget builds one for a world and
// its mission runtime; tests can assemble one from raw substrates.
type Target struct {
	Eng   *sim.Engine
	Pop   *asset.Population
	Net   *mesh.Network
	Jam   *attack.Field
	Smoke *attack.Obscurants
	// Composite, when set, resolves SelectComposite kill waves to the
	// current mission members.
	Composite func() []asset.ID
	// CommandPost, when set, resolves CommandPostLoss; otherwise the
	// alive blue asset with the most compute is taken.
	CommandPost func() asset.ID
	// CrashPost, when set, implements the `crash post` verb: destroy the
	// post and its state and disable implicit re-promotion
	// (core.Runtime.CrashPost). When nil, the verb degrades to
	// CommandPostLoss semantics.
	CrashPost func()
	// Failover, when set, implements the `failover warm|cold` verb
	// (core.Runtime.Failover). When nil, the verb is a no-op.
	Failover func(warm bool)
	// Goodput, when set, returns cumulative (done, total) counters —
	// on-time actions vs. incidents — that Run differentiates into an
	// instantaneous goodput signal.
	Goodput func() (done, total uint64)
	// Recovery, when any hook is set, lets Run measure a RecoveryGap
	// around each `crash post` fault in the plan.
	Recovery RecoveryHooks
}

// Injector is a compiled plan: its hooks are installed on the target
// network and its instantaneous faults are scheduled on the engine.
type Injector struct {
	t    Target
	plan *Plan
	rng  *sim.RNG

	// cuts holds the partitions in force at the last ask of cutNow, and
	// severs is the predicate over them. Neither is modified once made: a
	// change of set replaces both, so a predicate already handed out keeps
	// its answers, and an ask that finds the set unchanged allocates
	// nothing.
	cuts   []*Fault
	severs func(a, b geo.Point) bool

	// Killed counts assets destroyed by kill waves, command-post loss,
	// and churn spikes.
	Killed sim.Counter
}

// Apply compiles the plan onto the target: network hooks for
// partitions, corruption, and delay; jammers and obscurants with
// activation windows; scheduled kill waves, command-post loss, and
// churn spikes. All victim choices are drawn from a dedicated engine
// stream, so the injected damage is identical for identical seeds.
func Apply(t Target, p *Plan) *Injector {
	inj := &Injector{t: t, plan: p, rng: t.Eng.Stream("fault:" + p.Name)}
	hasPartition, hasHop := false, false
	for i := range p.Faults {
		f := p.Faults[i]
		switch f.Kind {
		case Partition:
			hasPartition = true
			// Refresh at the window edges so topology reacts promptly
			// rather than on the next maintenance tick.
			t.Eng.ScheduleAt(f.At, "fault.partition", t.Net.Refresh)
			if f.Duration > 0 {
				t.Eng.ScheduleAt(f.At+f.Duration, "fault.heal", t.Net.Refresh)
			}
		case JamWave:
			t.Jam.Add(attack.Jammer{
				Area: f.Area, Region: f.Region, Intensity: f.Intensity,
				From: f.At, Until: f.End(),
			})
		case Smoke:
			if t.Smoke != nil {
				t.Smoke.Add(attack.Obscurant{
					Area: f.Area, Blocks: asset.ModVisual,
					From: f.At, Until: f.End(),
				})
			}
		case Corrupt, Delay:
			hasHop = true
		case KillWave:
			t.Eng.ScheduleAt(f.At, "fault.kill", func() { inj.killWave(f) })
		case CommandPostLoss:
			t.Eng.ScheduleAt(f.At, "fault.cploss", func() { inj.killCommandPost() })
		case CrashPost:
			t.Eng.ScheduleAt(f.At, "fault.crash", func() { inj.crashPost() })
		case Failover:
			warm := f.Warm
			t.Eng.ScheduleAt(f.At, "fault.failover", func() {
				if inj.t.Failover != nil {
					inj.t.Failover(warm)
				}
			})
		case ChurnSpike:
			inj.scheduleChurnSpike(f)
		case Heal:
			// The heal itself acts through cutNow consulting the plan;
			// refresh at the instant so topology reconnects promptly.
			t.Eng.ScheduleAt(f.At, "fault.heal", t.Net.Refresh)
		}
	}
	if hasPartition {
		t.Net.SetLinkFault(inj.cutNow)
	}
	if hasHop {
		t.Net.SetHopFault(inj.hopEffect)
	}
	return inj
}

// cutNow is the network's link-fault hook. The partitions in force are
// a function of virtual time alone, so it finds the active, un-healed
// ones once per ask and returns the predicate over them, or nil when
// there are none. The predicate is immutable, so it answers for the
// instant of its ask for as long as it is kept; a new one is made only
// when the set in force differs from the last ask's.
func (inj *Injector) cutNow() func(a, b geo.Point) bool {
	now := inj.t.Eng.Now()
	k, same := 0, true
	for i := range inj.plan.Faults {
		if f := &inj.plan.Faults[i]; inj.inForce(f, now) {
			same = same && k < len(inj.cuts) && inj.cuts[k] == f
			k++
		}
	}
	if !same || k != len(inj.cuts) {
		inj.cuts, inj.severs = nil, nil
		if k > 0 {
			cuts := make([]*Fault, 0, k)
			for i := range inj.plan.Faults {
				if f := &inj.plan.Faults[i]; inj.inForce(f, now) {
					cuts = append(cuts, f)
				}
			}
			inj.cuts, inj.severs = cuts, func(a, b geo.Point) bool { return severed(cuts, a, b) }
		}
	}
	return inj.severs
}

// inForce reports whether f is a partition that is active and un-healed
// at now.
func (inj *Injector) inForce(f *Fault, now time.Duration) bool {
	return f.Kind == Partition && f.activeAt(now) && !inj.healed(f, now)
}

// severed reports whether any partition in cuts separates a from b: an X
// line when X is set, otherwise the boundary of Area.
func severed(cuts []*Fault, a, b geo.Point) bool {
	for _, f := range cuts {
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

// healed reports whether a Heal fault has ended partition f by now: a
// heal at time h ends every partition whose onset is at or before h.
func (inj *Injector) healed(f *Fault, now time.Duration) bool {
	for i := range inj.plan.Faults {
		h := &inj.plan.Faults[i]
		if h.Kind == Heal && h.At >= f.At && h.At <= now {
			return true
		}
	}
	return false
}

// hopEffect implements active corruption/delay faults.
func (inj *Injector) hopEffect(*mesh.Message) mesh.HopEffect {
	now := inj.t.Eng.Now()
	var eff mesh.HopEffect
	for i := range inj.plan.Faults {
		f := &inj.plan.Faults[i]
		if !f.activeAt(now) {
			continue
		}
		switch f.Kind {
		case Corrupt:
			if inj.rng.Bool(probOrOne(f.Prob)) {
				eff.Corrupt = true
			}
		case Delay:
			if inj.rng.Bool(probOrOne(f.Prob)) {
				eff.Delay += f.Extra
			}
		default:
			// Only Corrupt and Delay act per hop; the other kinds
			// take effect through topology or scheduled events.
		}
	}
	return eff
}

func probOrOne(p float64) float64 {
	if p <= 0 {
		return 1
	}
	return p
}

// killWave destroys Fraction of the selected population. Victims are
// chosen by a deterministic shuffle of the sorted candidate list.
func (inj *Injector) killWave(f Fault) {
	var ids []asset.ID
	if f.Select == SelectComposite && inj.t.Composite != nil {
		ids = append(ids, inj.t.Composite()...)
	} else {
		for _, a := range inj.t.Pop.All() {
			if !a.Alive() || a.Affiliation != asset.Blue {
				continue
			}
			if f.Area.Radius > 0 && !f.Area.Contains(a.Pos()) {
				continue
			}
			ids = append(ids, a.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := int(f.Fraction * float64(len(ids)))
	if n <= 0 {
		return
	}
	inj.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:n] {
		if a := inj.t.Pop.Get(id); a != nil && a.Alive() {
			inj.t.Pop.Kill(id)
			inj.Killed.Inc()
		}
	}
	inj.t.Net.Refresh()
}

// crashPost implements the `crash post` verb through the target's
// CrashPost hook (which destroys the post and its resident state),
// degrading to plain command-post loss when no hook is wired.
func (inj *Injector) crashPost() {
	if inj.t.CrashPost != nil {
		inj.t.CrashPost()
		inj.Killed.Inc()
		return
	}
	inj.killCommandPost()
}

// killCommandPost destroys the current command post.
func (inj *Injector) killCommandPost() {
	var id asset.ID
	if inj.t.CommandPost != nil {
		id = inj.t.CommandPost()
	} else {
		id = asset.None
		best := -1.0
		for _, a := range inj.t.Pop.All() {
			if a.Alive() && a.Affiliation == asset.Blue && a.Caps.Compute > best {
				id, best = a.ID, a.Caps.Compute
			}
		}
	}
	if id == asset.None {
		return
	}
	if a := inj.t.Pop.Get(id); a != nil && a.Alive() {
		inj.t.Pop.Kill(id)
		inj.Killed.Inc()
	}
	inj.t.Net.Refresh()
}

// scheduleChurnSpike drives burst attrition over the fault window.
func (inj *Injector) scheduleChurnSpike(f Fault) {
	const tick = 5 * time.Second
	inj.t.Eng.ScheduleAt(f.At, "fault.churnspike", func() {
		var step func()
		step = func() {
			if !f.activeAt(inj.t.Eng.Now()) {
				return
			}
			var ids []asset.ID
			for _, a := range inj.t.Pop.All() {
				if a.Alive() && a.Affiliation == asset.Blue {
					ids = append(ids, a.ID)
				}
			}
			expect := f.Rate * float64(len(ids)) * tick.Minutes()
			n := inj.rng.Poisson(expect)
			for i := 0; i < n && len(ids) > 0; i++ {
				k := inj.rng.Intn(len(ids))
				inj.t.Pop.Kill(ids[k])
				inj.Killed.Inc()
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
			if n > 0 {
				inj.t.Net.Refresh()
			}
			inj.t.Eng.Schedule(tick, "fault.churnspike", step)
		}
		step()
	})
}
