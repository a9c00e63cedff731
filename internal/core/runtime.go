package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"iobt/internal/adapt"
	"iobt/internal/asset"
	"iobt/internal/checkpoint"
	"iobt/internal/compose"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/track"
	"iobt/internal/trust"
)

// Metrics collects mission outcomes.
type Metrics struct {
	// Incidents counts generated battlefield events.
	Incidents sim.Counter
	// Detected counts incidents seen by some composite member.
	Detected sim.Counter
	// Acted counts incidents that received an authorized action.
	Acted sim.Counter
	// OnTime counts actions completed before the incident deadline.
	OnTime sim.Counter
	// Undeliverable counts incidents whose command traffic terminally
	// failed: no command post, an unreachable one, or an exhausted ARQ
	// budget. Before this counter existed those incidents vanished
	// silently; chaos invariants now audit it.
	Undeliverable sim.Counter
	// DecisionLatency records detection-to-action seconds.
	DecisionLatency sim.Series
	// Repairs counts composite re-synthesis events.
	Repairs sim.Counter
	// RepairTime records seconds from coverage violation to repair.
	RepairTime sim.Series
	// Fallbacks counts command-continuity fallbacks (hierarchy → intent
	// after repeated order-delivery failures).
	Fallbacks sim.Counter
	// Restores counts hierarchy restorations after a fallback.
	Restores sim.Counter
	// Relaxations counts coverage-goal relaxation steps taken when the
	// candidate pool could not repair the composite.
	Relaxations sim.Counter
	// HealthChanges counts mission health-state transitions.
	HealthChanges sim.Counter
	// OrdersCarried counts successful command-channel deliveries (each
	// ACKed report or order leg). With Undeliverable it bounds the
	// command traffic lost across a post crash.
	OrdersCarried sim.Counter
	// Failovers counts command-post promotions performed by Failover
	// (warm or cold), as opposed to the implicit repickSink path.
	Failovers sim.Counter
}

// NamedCounter is one mission counter and its name.
type NamedCounter struct {
	Name string
	*sim.Counter
}

// Counters returns every mission counter, named, in declaration order:
// the order Fingerprint digests them in and CountersMonotone audits.
func (m *Metrics) Counters() []NamedCounter {
	return []NamedCounter{
		{"incidents", &m.Incidents}, {"detected", &m.Detected}, {"acted", &m.Acted},
		{"ontime", &m.OnTime}, {"undeliverable", &m.Undeliverable}, {"repairs", &m.Repairs},
		{"fallbacks", &m.Fallbacks}, {"restores", &m.Restores}, {"relaxations", &m.Relaxations},
		{"healthchanges", &m.HealthChanges}, {"orderscarried", &m.OrdersCarried}, {"failovers", &m.Failovers},
	}
}

// SuccessRate returns OnTime/Incidents.
func (m *Metrics) SuccessRate() float64 {
	if m.Incidents.Value() == 0 {
		return 0
	}
	return float64(m.OnTime.Value()) / float64(m.Incidents.Value())
}

// DetectionRate returns Detected/Incidents.
func (m *Metrics) DetectionRate() float64 {
	if m.Incidents.Value() == 0 {
		return 0
	}
	return float64(m.Detected.Value()) / float64(m.Incidents.Value())
}

// Runtime executes one mission on a world.
type Runtime struct {
	W       *World
	Mission Mission
	Metrics Metrics

	comp       *compose.Composite
	members    map[asset.ID]bool
	sink       asset.ID
	req        compose.Requirements
	rng        *sim.RNG
	gen        *sim.Ticker
	healthMon  *adapt.Monitor
	nextIncID  int
	resolved   map[int]bool // incidents terminally resolved (acted or undeliverable)
	rel        *mesh.Reliable
	started    bool
	registered map[asset.ID]bool

	health     HealthState
	orderFails int // consecutive order-delivery failures
	fellBack   bool
	relaxSteps int

	// Checkpoint/failover state (see failover.go).
	coord    *checkpoint.Coordinator
	journal  *checkpoint.Journal
	tracker  *track.Tracker
	postDown bool // post destroyed, successor not yet promoted
	snapLen  int  // size of the last Snapshot, reserved for the next
}

// ErrSynthesisFailed wraps composition failure at mission start.
var ErrSynthesisFailed = errors.New("core: mission synthesis failed")

// NewRuntime prepares (but does not start) a mission runtime.
func NewRuntime(w *World, m Mission) *Runtime {
	return &Runtime{
		W:          w,
		Mission:    m.normalized(),
		rng:        w.Eng.Stream("runtime"),
		members:    make(map[asset.ID]bool),
		registered: make(map[asset.ID]bool),
		resolved:   make(map[int]bool),
		health:     Healthy,
	}
}

// Synthesize performs Challenge-1 composition: build the candidate pool
// (trust-aware), derive requirements from the goal, and solve greedily.
func (r *Runtime) Synthesize() error {
	r.req = compose.Derive(r.Mission.Goal)
	pool := compose.PoolFromPopulation(r.W.Pop, r.W.Trust)
	comp, err := compose.GreedySolver{}.Solve(r.req, pool)
	if err != nil {
		if comp != nil {
			return fmt.Errorf("%w: %v", ErrSynthesisFailed, comp.Assurance.Violations)
		}
		return ErrSynthesisFailed
	}
	r.install(comp)
	r.sink = r.W.PickCommandPost()
	return nil
}

func (r *Runtime) install(comp *compose.Composite) {
	r.comp = comp
	for id := range r.members {
		delete(r.members, id)
	}
	for _, id := range comp.Members {
		r.members[id] = true
	}
	if r.started {
		r.registerCommandNodes()
	}
}

// Composite returns the current composite (nil before Synthesize).
func (r *Runtime) Composite() *compose.Composite { return r.comp }

// Health returns the current mission health state.
func (r *Runtime) Health() HealthState { return r.health }

// Sink returns the current command post (None if lost).
func (r *Runtime) Sink() asset.ID { return r.sink }

// Start begins incident generation and the coverage reflex monitor.
// Synthesize must have succeeded.
func (r *Runtime) Start() error {
	if r.comp == nil {
		return ErrSynthesisFailed
	}
	if r.Mission.ReliableOrders {
		r.rel = mesh.NewReliable(r.W.Eng, r.W.Net)
	}
	r.started = true
	r.registerCommandNodes()
	interval := time.Duration(float64(time.Minute) / r.Mission.IncidentsPerMin)
	r.gen = r.W.Eng.Every(interval, "core.incident", r.incident)
	r.healthMon = adapt.NewMonitor(r.W.Eng, "coverage",
		r.monitorTick,
		r.repair,
	)
	r.healthMon.Start(5 * time.Second)
	r.startCheckpoints()
	return nil
}

// Stop halts mission processes.
func (r *Runtime) Stop() {
	if r.gen != nil {
		r.gen.Stop()
		r.gen = nil
	}
	if r.healthMon != nil {
		r.healthMon.Stop()
		r.healthMon = nil
	}
	if r.coord != nil {
		r.coord.Stop()
	}
}

// monitorTick is the periodic self-check: it re-evaluates coverage (the
// monitor fires repair when it fails), refreshes the health state
// machine, and — when degradation reflexes are on — probes whether a
// fallen-back hierarchy can be restored.
func (r *Runtime) monitorTick() bool {
	ok := r.coverageHolds()
	r.setHealth(r.computeHealth(ok))
	if ok && r.Mission.Degradation && r.fellBack {
		r.tryRestoreHierarchy()
	}
	return ok
}

// coverageHolds re-evaluates the composite assurance against current
// positions and liveness.
func (r *Runtime) coverageHolds() bool {
	members := r.liveMembers()
	a := compose.Evaluate(r.req, members)
	needFrac := float64(r.req.NeedCells) / float64(maxi(len(r.req.Cells), 1))
	return a.CoverageFrac+1e-9 >= needFrac
}

// repair is the reflex: incremental re-composition around failed
// members (paper: "re-assemble ... upon damage ... within an
// appropriately short time"). When the candidate pool cannot restore
// the goal and degradation reflexes are enabled, the coverage
// requirement is relaxed stepwise (never below relaxFloor)
// instead of limping silently below an unmeetable goal.
func (r *Runtime) repair() {
	start := r.W.Eng.Now()
	failed := map[asset.ID]bool{}
	for id := range r.members {
		a := r.W.Pop.Get(id)
		if a == nil || !a.Alive() {
			failed[id] = true
		}
	}
	pool := compose.PoolFromPopulation(r.W.Pop, r.W.Trust)
	comp, err := compose.Recompose(r.req, r.comp, failed, pool)
	if err != nil && r.Mission.Degradation {
		for err != nil && r.relaxOnce() {
			comp, err = compose.Recompose(r.req, r.comp, failed, pool)
		}
	}
	if err != nil {
		// Pool exhausted (and relaxation floor reached, or reflexes
		// disabled): record the degraded state rather than pretending
		// the goal still holds.
		r.setHealth(r.computeHealth(false))
		return
	}
	r.install(comp)
	r.Metrics.Repairs.Inc()
	r.Metrics.RepairTime.AddDuration(r.W.Eng.Now() - start)
	r.journalf("repair members=%d", len(comp.Members))
	r.setHealth(r.computeHealth(r.coverageHolds()))
}

// relaxFloorCells is the fewest covered cells relaxation may settle for.
func (r *Runtime) relaxFloorCells() int {
	return max(1, int(relaxFloor*float64(len(r.req.Cells))))
}

// relaxOnce lowers the coverage requirement one step (-20%), bounded by
// relaxFloorCells. Returns false when no further relaxation is allowed.
func (r *Runtime) relaxOnce() bool {
	floor := r.relaxFloorCells()
	if r.req.NeedCells <= floor {
		return false
	}
	next := r.req.NeedCells * 4 / 5
	if next >= r.req.NeedCells {
		next = r.req.NeedCells - 1
	}
	if next < floor {
		next = floor
	}
	r.req.NeedCells = next
	r.relaxSteps++
	r.Metrics.Relaxations.Inc()
	return true
}

// sortedMemberIDs returns the current composite membership in
// ascending ID order. Every loop over r.members whose effects can
// reach scheduling, messaging, or tie-breaking must iterate this
// slice instead of the map: map iteration order differs between
// same-seed runs, and dettaint traces any value it touches all the
// way into the event queue.
func (r *Runtime) sortedMemberIDs() []asset.ID {
	ids := make([]asset.ID, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// liveMembers materializes current member candidates with live
// positions, in ascending ID order: the list feeds the composition
// solvers, whose tie-breaking follows slice order, so map iteration
// order must not leak into it.
func (r *Runtime) liveMembers() []compose.Candidate {
	ids := r.sortedMemberIDs()
	var out []compose.Candidate
	for _, id := range ids {
		a := r.W.Pop.Get(id)
		if a == nil || !a.Alive() {
			continue
		}
		out = append(out, compose.Candidate{
			ID: id, Pos: a.Pos(), Caps: a.Caps,
			Trust: r.W.Trust.Score(id), Affiliation: a.Affiliation,
		})
	}
	return out
}

// incident generates one battlefield event and drives the decision loop.
func (r *Runtime) incident() {
	r.Metrics.Incidents.Inc()
	r.nextIncID++
	pos := geo.Point{
		X: r.rng.Uniform(r.Mission.Goal.Area.Min.X, r.Mission.Goal.Area.Max.X),
		Y: r.rng.Uniform(r.Mission.Goal.Area.Min.Y, r.Mission.Goal.Area.Max.Y),
	}
	deadline := r.W.Eng.Now() + r.Mission.IncidentDeadline

	detector := r.nearestDetector(pos)
	if detector == asset.None {
		r.journalf("incident id=%d x=%.2f y=%.2f missed", r.nextIncID, pos.X, pos.Y)
		return // coverage gap: incident missed
	}
	r.Metrics.Detected.Inc()
	detectedAt := r.W.Eng.Now()
	r.journalf("incident id=%d x=%.2f y=%.2f det=%d", r.nextIncID, pos.X, pos.Y, detector)

	incID := r.nextIncID
	complete := func() {
		// An incident resolves exactly once. A duplicate order — the ARQ
		// window requeued by a warm failover re-delivers traffic that
		// already executed, or a delayed order lands after the incident
		// was declared undeliverable — must not be executed again.
		if r.resolved[incID] {
			r.journalf("order id=%d duplicate ignored", incID)
			return
		}
		r.resolved[incID] = true
		now := r.W.Eng.Now()
		r.Metrics.Acted.Inc()
		r.Metrics.DecisionLatency.AddDuration(now - detectedAt)
		if now <= deadline {
			r.Metrics.OnTime.Inc()
		}
		if r.Mission.TrustAudit {
			r.W.Trust.Observe(detector, trust.EvMission, true)
		}
		r.journalf("acted id=%d ontime=%v", incID, now <= deadline)
	}

	cmd := r.Mission.Command
	if r.fellBack {
		// Command continuity: the hierarchy is unreachable, subordinates
		// act on commander's intent.
		cmd = CommandIntent
	}
	switch cmd {
	case CommandIntent:
		// Subordinate initiative: deliberate locally, act.
		r.W.Eng.Schedule(localDeliberation, "core.intent-act", complete)
	default:
		r.hierarchyLoop(detector, incID, complete)
	}
}

// failIncident returns the terminal-failure callback for one incident.
// Like complete, it resolves the incident at most once: a late ARQ
// exhaustion after the order already executed (or a second failure for
// traffic requeued across a failover) is not a new command failure.
func (r *Runtime) failIncident(incID int) func() {
	return func() {
		if r.resolved[incID] {
			return
		}
		r.resolved[incID] = true
		r.commandFailed()
	}
}

// hierarchyLoop routes the report to the command post, pays per-level
// approval, and routes the order back. Terminal delivery failures are
// counted (Metrics.Undeliverable) and feed the command-continuity
// reflex.
func (r *Runtime) hierarchyLoop(detector asset.ID, incID int, complete func()) {
	fail := r.failIncident(incID)
	if r.sink == asset.None || !r.sinkAlive() {
		r.repickSink()
	}
	sink := r.sink
	if sink == asset.None {
		fail()
		return
	}
	msg := mesh.Message{
		From: detector, To: sink, Size: 2000, Kind: "report",
		Payload: reportPayload{incID: incID, detector: detector, complete: complete},
	}
	if r.rel != nil {
		r.rel.Send(msg, r.commandCarried, fail)
		return
	}
	if err := r.W.Net.Send(msg); err != nil {
		// Command post unreachable: the hierarchy cannot authorize.
		fail()
	}
}

type reportPayload struct {
	incID    int
	detector asset.ID
	complete func()
}

type orderPayload struct {
	incID    int
	complete func()
}

// registerCommandNodes installs the report/order handler on the command
// post and every composite member, exactly once per node. Handlers used
// to be re-registered on every incident; now registration happens at
// Start and on composite changes only (Reliable.Registrations guards
// this in the regression test).
func (r *Runtime) registerCommandNodes() {
	if r.Mission.Command != CommandHierarchy {
		return
	}
	for _, id := range r.sortedMemberIDs() {
		r.registerNode(id)
	}
	if r.sink != asset.None {
		r.registerNode(r.sink)
	}
}

func (r *Runtime) registerNode(id asset.ID) {
	if r.registered[id] {
		return
	}
	r.registered[id] = true
	h := r.commandHandler(id)
	if r.rel != nil {
		r.rel.Register(id, h)
		return
	}
	r.W.Net.RegisterHandler(id, h)
}

// commandHandler serves both legs of the decision loop at one node:
// reports are processed only while the node is the current command post
// (pay the staffing delay for each echelon, send the order back);
// orders execute at their detector.
func (r *Runtime) commandHandler(id asset.ID) mesh.Handler {
	return func(msg mesh.Message) {
		switch msg.Kind {
		case "report":
			if id != r.sink {
				return // stale post: no longer authorized
			}
			p, ok := msg.Payload.(reportPayload)
			if !ok {
				return
			}
			delay := time.Duration(r.Mission.HierarchyLevels) * approvalPerLevel
			r.W.Eng.Schedule(delay, "core.approve", func() {
				order := mesh.Message{
					From: id, To: p.detector, Size: 500, Kind: "order",
					Payload: orderPayload{incID: p.incID, complete: p.complete},
				}
				fail := r.failIncident(p.incID)
				if r.rel != nil {
					r.rel.Send(order, r.commandCarried, fail)
					return
				}
				if err := r.W.Net.Send(order); err != nil {
					fail()
				}
			})
		case "order":
			p, ok := msg.Payload.(orderPayload)
			if !ok {
				return
			}
			p.complete()
		}
	}
}

// commandCarried records a successful command-channel delivery.
func (r *Runtime) commandCarried() {
	r.Metrics.OrdersCarried.Inc()
	r.orderFails = 0
	r.setHealth(r.computeHealth(true))
}

// commandFailed records a terminal command-channel failure (no post,
// unreachable post, or exhausted ARQ budget) and drives the
// command-continuity reflex: re-pick the post, and after
// fallbackAfter consecutive failures fall back to intent.
func (r *Runtime) commandFailed() {
	r.Metrics.Undeliverable.Inc()
	r.orderFails++
	if r.Mission.Degradation {
		if r.sink == asset.None || !r.sinkAlive() {
			r.repickSink()
		}
		if !r.fellBack && r.orderFails >= fallbackAfter {
			r.fellBack = true
			r.Metrics.Fallbacks.Inc()
			r.journalf("fallback fails=%d", r.orderFails)
		}
	}
	r.setHealth(r.computeHealth(true))
}

// tryRestoreHierarchy probes whether a fallen-back hierarchy can be
// restored: a live command post reachable from some live member.
func (r *Runtime) tryRestoreHierarchy() {
	if r.sink == asset.None || !r.sinkAlive() {
		r.repickSink()
	}
	if r.sink == asset.None || !r.sinkAlive() {
		return
	}
	for id := range r.members {
		a := r.W.Pop.Get(id)
		if a == nil || !a.Alive() {
			continue
		}
		if r.W.Net.Reachable(id, r.sink) {
			r.fellBack = false
			r.orderFails = 0
			r.Metrics.Restores.Inc()
			r.journalf("restore sink=%d", r.sink)
			return
		}
	}
}

func (r *Runtime) sinkAlive() bool {
	a := r.W.Pop.Get(r.sink)
	return a != nil && a.Alive()
}

func (r *Runtime) repickSink() {
	if r.postDown {
		// The post was destroyed by a crash fault: promotion is the
		// failover subsystem's decision (warm/cold/none), not an implicit
		// side effect of the next delivery failure.
		return
	}
	r.sink = r.W.PickCommandPost()
	if r.started && r.sink != asset.None {
		r.registerNode(r.sink)
	}
}

// nearestDetector returns the closest live composite member that can
// sense the position, or None. Environmental obscurants (smoke) mask a
// member's blocked modalities, so an all-visual composite goes blind
// inside a smoke field while a modality-diverse one keeps detecting —
// the paper's seismic-for-visual substitution, live.
func (r *Runtime) nearestDetector(pos geo.Point) asset.ID {
	best := asset.None
	bestD := 0.0
	mods := r.Mission.Goal.Modalities
	blocked := r.W.Smoke.BlockedAt(pos)
	// Ascending-ID iteration makes the strict `d < bestD` tie-break
	// deterministic: equidistant detectors resolve to the lowest ID
	// instead of whichever the map yielded first that run.
	for _, id := range r.sortedMemberIDs() {
		a := r.W.Pop.Get(id)
		if a == nil || !a.Alive() {
			continue
		}
		effective := a.Caps.Modalities &^ blocked
		if effective == 0 {
			continue // everything this member senses with is obscured
		}
		if mods != 0 && effective&mods == 0 {
			continue
		}
		d := a.Pos().Dist(pos)
		if d > a.Caps.SenseRange {
			continue
		}
		if best == asset.None || d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
