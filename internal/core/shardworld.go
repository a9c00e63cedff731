package core

// ShardMission is the first migration slice of the mission runtime onto
// the sharded engine. The classic Runtime keeps shared maps — members,
// per-asset health, resolved incidents — that every handler reads and
// writes freely, which the sequential sim.Engine permits and the
// parallel sim.Sharded engine cannot. This file re-expresses the
// health/tracking half of that state in the owner-only discipline the
// shardsafe analyzers enforce:
//
//   - each battlefield asset is one actor owning its OWN health state
//     and track observations (//iobt:actor-state shardAsset) — the
//     sharded analogue of Runtime's shared health/tracker maps;
//   - the command post is one more actor owning the aggregated
//     operational picture (//iobt:actor-state shardPost), fed
//     EXCLUSIVELY by ShardCtx.Send mailbox messages — never by a
//     cross-actor read;
//   - post-side merges are idempotent and commutative (sequence-guarded
//     health updates, count/min track folds), so the picture is a pure
//     function of the message multiset.
//
// Under those rules the same seed yields a byte-identical result for
// any shard count, which TestShardMissionDeterminismAcrossShardCounts
// proves with checkpoint.VerifyEquivalence at 1, 2, 4, and 8 shards.

import (
	"fmt"
	"sort"
	"time"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// ShardMissionConfig parameterizes one sharded mission run.
type ShardMissionConfig struct {
	// Assets is the sensing population size (required, >= 2). The
	// command post is one additional actor.
	Assets int
}

// The sharded mission's fixed sensing model, fault schedule and cadences.
const (
	// sensorRange is the detection radius in meters. Degraded assets
	// sense at 60% of it.
	sensorRange = 150.0
	// incidentDur is how long each incident stays observable.
	incidentDur = 30 * time.Second
	// senseEvery is the detection scan cadence and healthEvery the
	// health re-evaluation cadence.
	senseEvery  = 2 * time.Second
	healthEvery = 5 * time.Second
	// reportLatency is the asset→post message delay, above the engine
	// lookahead so reports are never clamped.
	reportLatency = 150 * time.Millisecond
	// mobilityEvery is the shard-migration cadence following asset drift.
	mobilityEvery = 4 * time.Second
	// degradeFrac of assets degrade at a drawn time and failFrac fail
	// outright. Failed sensors stop detecting but keep reporting health.
	degradeFrac = 0.25
	failFrac    = 0.1
	// shardHorizon is the virtual run length.
	shardHorizon = 180 * time.Second
)

// ShardMissionResult aggregates one sharded mission run. Every field is
// derived from per-actor state folded in ID order, so for a fixed seed
// and config it is identical across shard counts — Digest is the
// byte-level witness the differential tests compare.
type ShardMissionResult struct {
	Shards    int
	Assets    int
	Incidents int

	// HealthReports / TrackReports count mailbox messages the post
	// applied; StaleReports counts sequence-guarded rejects (0 on a
	// healthy run — reports from one asset arrive in order).
	HealthReports uint64
	TrackReports  uint64
	StaleReports  uint64
	// HealthChanges sums per-asset health transitions; Detections sums
	// per-asset first-time incident observations.
	HealthChanges uint64
	Detections    uint64

	// PictureAssets is how many assets the post's picture covers;
	// PostHealthy/PostDegraded/PostCritical partition it.
	PictureAssets int
	PostHealthy   int
	PostDegraded  int
	PostCritical  int
	// TrackedIncidents is how many distinct incidents reached the
	// post's picture.
	TrackedIncidents int
	// MissionHealth is the post's summary judgment of the force, in the
	// same HealthState vocabulary the classic Runtime reports.
	MissionHealth HealthState

	// Events is the total number of simulation events executed and
	// ClampedSends the number of Send delays raised to the lookahead
	// floor (0 here: reportLatency sits above the floor).
	Events       uint64
	ClampedSends uint64
	// Violations lists conservation-law breaches (empty on a healthy
	// run).
	Violations []string
	// Digest folds all per-actor model state in ID order.
	Digest uint64
}

// shardIncident is one scheduled battlefield incident: part of the
// frozen run context, observable by any asset within sensor range
// during [at, at+incidentDur) — a pure function of the schedule and the
// clock.
type shardIncident struct {
	id  int
	pos geo.Point
	at  time.Duration
}

// shardAsset is one asset's state, owned by its actor: only events
// executing on the asset mutate it — enforced by the shardown analyzer.
// health and tracks are the migrated slice of the classic Runtime's
// shared maps.
//
//iobt:actor-state
type shardAsset struct {
	id                int
	rng               *sim.RNG
	degradeAt, failAt time.Duration // 0 = never

	health        HealthState
	healthSeq     uint64
	healthChanges uint64
	tracks        map[int]time.Duration // incident -> first local detection
	reports       uint64

	// Tick closures are built once at setup and rescheduled by value;
	// re-invoking the maker every tick allocated a fresh closure per
	// asset per cadence.
	healthFn, senseFn func(*sim.ShardCtx)
}

// shardPost is the command post's aggregated operational picture, owned
// by the post actor and fed only through ShardCtx.Send mailbox
// messages. Its merges are idempotent (healthSeq guard) and commutative
// (count and min folds), so the picture is independent of same-time
// message interleaving.
//
//iobt:actor-state
type shardPost struct {
	health    map[int]HealthState
	healthSeq map[int]uint64
	tracks    map[int]int           // incident -> distinct reporting assets
	firstSeen map[int]time.Duration // incident -> earliest reported detection
	firstBy   map[int]int           // incident -> reporter of that detection

	healthReports, trackReports, staleReports uint64
}

// shardMission carries the immutable run context shared by all events:
// the actor tables, the incident schedule, and the placement map.
// Everything here is written once at setup and only read during the
// run, so workers share it safely — the gocapture analyzer lets event
// closures capture it on the strength of this annotation.
//
//iobt:frozen
type shardMission struct {
	sc     ShardMissionConfig
	assets []*shardAsset
	// posts is indexed by actor ID so post state is only reachable
	// through ShardCtx.Self(); every slot below postID is nil.
	posts     []*shardPost
	incidents []shardIncident
	field     *geo.DriftField
	postID    sim.ActorID
}

// healthOf is the pure per-asset health schedule: past failAt the
// platform is Critical, past degradeAt it is Degraded.
func healthOf(degradeAt, failAt, t time.Duration) HealthState {
	switch {
	case failAt > 0 && t >= failAt:
		return Critical
	case degradeAt > 0 && t >= degradeAt:
		return Degraded
	default:
		return Healthy
	}
}

// RunShardMission executes one mission slice on a sharded engine with
// the given shard count. The shard count is a pure performance knob:
// for a fixed seed and config the returned result — including Digest —
// is identical for every shards value.
func RunShardMission(seed int64, shards int, sc ShardMissionConfig) (*ShardMissionResult, error) {
	if sc.Assets < 2 {
		return nil, fmt.Errorf("core: shard mission needs at least 2 assets, got %d", sc.Assets)
	}
	if shards < 1 {
		shards = 1
	}
	// The incident schedule holds max(3, Assets/8) incidents.
	incidents := max(3, sc.Assets/8)

	eng := sim.NewSharded(seed, sim.ShardedConfig{Shards: shards, Lookahead: 100 * time.Millisecond})
	r := &shardMission{
		sc:        sc,
		assets:    make([]*shardAsset, sc.Assets),
		posts:     make([]*shardPost, sc.Assets+1),
		incidents: make([]shardIncident, incidents),
		// The zero area and drift select the field's defaults.
		field:  geo.NewDriftField(eng.Stream("shardworld/field"), sc.Assets, shards, geo.Rect{}, 0),
		postID: sim.ActorID(sc.Assets),
	}

	// Field layout, fault schedule, and incident schedule from setup
	// streams, drawn in ID order — shard-count independent by
	// construction.
	area := r.field.Area
	faults := eng.Stream("shardworld/fault")
	incs := eng.Stream("shardworld/incident")
	for i := 0; i < sc.Assets; i++ {
		a := &shardAsset{
			id:     i,
			rng:    eng.Stream(fmt.Sprintf("shardworld/asset/%d", i)),
			tracks: make(map[int]time.Duration),
		}
		if faults.Bool(degradeFrac) {
			a.degradeAt = time.Duration(faults.Uniform(float64(shardHorizon/6), float64(shardHorizon/2)))
		}
		if faults.Bool(failFrac) {
			a.failAt = time.Duration(faults.Uniform(float64(shardHorizon/3), float64(2*shardHorizon/3)))
		}
		r.assets[i] = a
		eng.AddActor(sim.ActorID(i), r.field.Map.ShardOf(r.field.Home(i)))
	}
	for i := range r.incidents {
		r.incidents[i] = shardIncident{
			id: i,
			pos: geo.Point{
				X: incs.Uniform(area.Min.X, area.Max.X),
				Y: incs.Uniform(area.Min.Y, area.Max.Y),
			},
			at: time.Duration(incs.Uniform(float64(5*time.Second), float64(shardHorizon)*0.7)),
		}
	}
	r.posts[r.postID] = &shardPost{
		health:    make(map[int]HealthState),
		healthSeq: make(map[int]uint64),
		tracks:    make(map[int]int),
		firstSeen: make(map[int]time.Duration),
		firstBy:   make(map[int]int),
	}
	center := geo.Point{
		X: area.Min.X + area.Width()/2,
		Y: area.Min.Y + area.Height()/2,
	}
	eng.AddActor(r.postID, r.field.Map.ShardOf(center))

	for i := 0; i < sc.Assets; i++ {
		a := r.assets[i]
		a.healthFn = r.healthTick(a)
		hp := time.Duration(a.rng.Intn(int(healthEvery/time.Millisecond))) * time.Millisecond
		eng.ScheduleActor(sim.ActorID(i), healthEvery+hp, "health", a.healthFn)
		a.senseFn = r.senseTick(a)
		sp := time.Duration(a.rng.Intn(int(senseEvery/time.Millisecond))) * time.Millisecond
		eng.ScheduleActor(sim.ActorID(i), senseEvery+sp, "sense", a.senseFn)
		// Mobility ticks run at EVERY shard count (a 1-shard Migrate is a
		// no-op): gating them on shards > 1 would skew both the per-asset
		// stream and the processed-event count, breaking invariance.
		mp := time.Duration(a.rng.Intn(int(mobilityEvery/time.Millisecond))) * time.Millisecond
		eng.ScheduleActor(sim.ActorID(i), mobilityEvery+mp, "mobility",
			r.field.MobilityTick(i, mobilityEvery, shardHorizon, 0))
	}

	if err := eng.Run(shardHorizon); err != nil {
		return nil, err
	}
	return r.collect(eng, shards), nil
}

// healthTick re-evaluates the asset's own health and, on a transition,
// mails the change to the command post — the owner-only replacement for
// writing a shared health map.
func (r *shardMission) healthTick(a *shardAsset) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		now := c.Now()
		if next := healthOf(a.degradeAt, a.failAt, now); next != a.health {
			a.health = next
			a.healthChanges++
			a.healthSeq++
			c.Send(r.postID, reportLatency, "health.report", r.healthReport(a.id, a.healthSeq, next))
		}
		if now+healthEvery <= shardHorizon {
			c.Schedule(healthEvery, "health", a.healthFn)
		}
	}
}

// senseTick scans the frozen incident schedule against the asset's own
// position and records first-time detections locally before mailing
// them to the post.
func (r *shardMission) senseTick(a *shardAsset) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		now := c.Now()
		if a.failAt == 0 || now < a.failAt {
			rng := sensorRange
			if a.health == Degraded {
				rng *= 0.6
			}
			p := r.field.Pos(a.id, now)
			for _, inc := range r.incidents {
				if now < inc.at || now >= inc.at+incidentDur {
					continue
				}
				if _, seen := a.tracks[inc.id]; seen {
					continue
				}
				if p.Dist(inc.pos) > rng {
					continue
				}
				a.tracks[inc.id] = now
				a.reports++
				c.Send(r.postID, reportLatency, "track.report", r.trackReport(a.id, inc.id, now))
			}
		}
		if now+senseEvery <= shardHorizon {
			c.Schedule(senseEvery, "sense", a.senseFn)
		}
	}
}

// healthReport merges one asset's health transition into the post's
// picture. The per-asset sequence guard makes the merge idempotent:
// replaying or reordering a report can never regress the picture.
func (r *shardMission) healthReport(id int, seq uint64, state HealthState) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		p := r.posts[c.Self()]
		if seq <= p.healthSeq[id] {
			p.staleReports++
			return
		}
		p.healthSeq[id] = seq
		p.health[id] = state
		p.healthReports++
	}
}

// trackReport merges one detection into the post's picture with
// commutative folds: a distinct-reporter count and an earliest-seen
// minimum (ties broken by lowest reporter ID), both independent of
// arrival order.
func (r *shardMission) trackReport(assetID, incID int, at time.Duration) func(*sim.ShardCtx) {
	return func(c *sim.ShardCtx) {
		p := r.posts[c.Self()]
		p.tracks[incID]++
		cur, seen := p.firstSeen[incID]
		if !seen || at < cur || (at == cur && assetID < p.firstBy[incID]) {
			p.firstSeen[incID] = at
			p.firstBy[incID] = assetID
		}
		p.trackReports++
	}
}

// collect folds per-actor state into the result, checks the
// conservation laws, and computes the ID-ordered digest. It runs after
// Run returns, while the engine is quiescent.
func (r *shardMission) collect(eng *sim.Sharded, shards int) *ShardMissionResult {
	res := &ShardMissionResult{
		Shards:       shards,
		Assets:       r.sc.Assets,
		Incidents:    len(r.incidents),
		Events:       eng.Processed(),
		ClampedSends: eng.ClampedSends(),
	}
	p := r.posts[r.postID]

	w := r.field.Fold
	for _, a := range r.assets {
		res.HealthChanges += a.healthChanges
		res.Detections += uint64(len(a.tracks))
		w(uint64(a.id))
		w(uint64(a.health))
		w(a.healthSeq)
		w(a.healthChanges)
		w(a.reports)
		keys := make([]int, 0, len(a.tracks))
		for id := range a.tracks {
			keys = append(keys, id)
		}
		sort.Ints(keys)
		w(uint64(len(keys)))
		for _, id := range keys {
			// Conservation law 1: every local track traces to a scheduled
			// incident and was detected inside its observable window.
			if id < 0 || id >= len(r.incidents) {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"asset %d tracks unscheduled incident %d", a.id, id))
			} else if at := a.tracks[id]; at < r.incidents[id].at || at >= r.incidents[id].at+incidentDur {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"asset %d detected incident %d at %s outside its window", a.id, id, at))
			}
			w(uint64(id))
			w(uint64(a.tracks[id]))
		}
	}

	res.HealthReports = p.healthReports
	res.TrackReports = p.trackReports
	res.StaleReports = p.staleReports
	res.PictureAssets = len(p.health)
	ids := make([]int, 0, len(p.health))
	for id := range p.health {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		switch p.health[id] {
		case Healthy:
			res.PostHealthy++
		case Degraded:
			res.PostDegraded++
		case Critical:
			res.PostCritical++
		default:
			res.Violations = append(res.Violations, fmt.Sprintf(
				"post picture holds unknown health %d for asset %d", p.health[id], id))
		}
		w(uint64(id))
		w(uint64(p.health[id]))
		w(p.healthSeq[id])
	}
	incIDs := make([]int, 0, len(p.tracks))
	for id := range p.tracks {
		incIDs = append(incIDs, id)
	}
	sort.Ints(incIDs)
	res.TrackedIncidents = len(incIDs)
	for _, id := range incIDs {
		// Conservation law 2: the post cannot know more reporters than
		// assets, nor incidents nobody scheduled.
		if id < 0 || id >= len(r.incidents) {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"post tracks unscheduled incident %d", id))
		}
		if p.tracks[id] > r.sc.Assets {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"post counts %d reporters for incident %d with only %d assets", p.tracks[id], id, r.sc.Assets))
		}
		w(uint64(id))
		w(uint64(p.tracks[id]))
		w(uint64(p.firstSeen[id]))
		w(uint64(p.firstBy[id]))
	}
	w(p.healthReports)
	w(p.trackReports)
	w(p.staleReports)

	// Conservation law 3: the post applies at most what the assets sent
	// (reports still in flight at the horizon are simply unapplied), and
	// rejects nothing on a healthy run.
	if res.HealthReports+res.StaleReports > res.HealthChanges {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"post applied %d + rejected %d health reports but assets made %d transitions",
			res.HealthReports, res.StaleReports, res.HealthChanges))
	}
	if res.TrackReports > res.Detections {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"post applied %d track reports but assets detected %d", res.TrackReports, res.Detections))
	}

	switch {
	case res.PictureAssets > 0 && res.PostCritical*3 > res.PictureAssets:
		res.MissionHealth = Critical
	case res.PostCritical > 0 || res.PostDegraded > 0:
		res.MissionHealth = Degraded
	default:
		res.MissionHealth = Healthy
	}
	res.Digest = r.field.Digest()
	return res
}
