package core

import (
	"time"

	"iobt/internal/compose"
	"iobt/internal/geo"
)

// CommandModel selects how battlefield decisions are authorized.
type CommandModel int

// Command models.
const (
	// CommandHierarchy routes every decision to the command post and
	// back, paying per-level staffing delays — the paper's "strict
	// hierarchical structure" whose authorizations "must arrive through
	// an appropriate chain of command".
	CommandHierarchy CommandModel = iota + 1
	// CommandIntent lets the detecting asset act on commander's intent
	// after a brief local deliberation — "empowers subordinate units to
	// exercise more initiative and autonomy".
	CommandIntent
)

// String names the command model.
func (c CommandModel) String() string {
	switch c {
	case CommandHierarchy:
		return "hierarchy"
	case CommandIntent:
		return "intent"
	default:
		return "unknown"
	}
}

// Mission is a commander's tasking.
type Mission struct {
	// Goal is the declarative synthesis goal (area, modalities,
	// coverage, resources).
	Goal compose.Goal
	// Command selects the decision-authorization model.
	Command CommandModel
	// HierarchyLevels is the chain-of-command depth (hierarchy only).
	HierarchyLevels int
	// ReliableOrders routes hierarchy reports and orders over the ARQ
	// layer instead of best-effort delivery: fewer decisions lost to
	// channel loss, at added latency and airtime.
	ReliableOrders bool

	// Degradation enables the graceful-degradation reflexes: command
	// continuity (hierarchy → intent fallback after fallbackAfter
	// consecutive order-delivery failures, restored when a post becomes
	// reachable again) and coverage-goal relaxation (down to relaxFloor)
	// when the candidate pool cannot repair the composite.
	Degradation bool

	// IncidentsPerMin is the battlefield event rate.
	IncidentsPerMin float64
	// IncidentDeadline is how long an incident stays actionable.
	// Zero defaults to 30s.
	IncidentDeadline time.Duration

	// CheckpointEvery enables periodic mission checkpoints at this
	// cadence (zero disables). Checkpoints capture command-post state —
	// composite roll, trust ledger, track picture, ARQ window — so a
	// successor post can be promoted warm after the post is destroyed.
	// Shorter cadence means a fresher restore at more airtime/compute;
	// E15 sweeps this trade-off.
	CheckpointEvery time.Duration
	// TrustAudit makes each completed action feed positive mission
	// evidence (trust.EvMission) for its detector, so the trust ledger
	// accumulates signal during the mission — and the evidence lost in a
	// post crash (the stale-trust window) is measurable.
	TrustAudit bool
}

// The command model's fixed timings and degradation thresholds.
const (
	// approvalPerLevel is the staffing delay added at each echelon.
	approvalPerLevel = 2 * time.Second
	// localDeliberation is the on-asset decision time under intent.
	localDeliberation = 200 * time.Millisecond
	// fallbackAfter is the consecutive command-delivery-failure count
	// that triggers the intent fallback.
	fallbackAfter = 3
	// relaxFloor is the lowest coverage fraction relaxation may reach,
	// as a fraction of the original cell grid.
	relaxFloor = 0.2
	// coldRebuild is how long a cold-promoted successor takes to rebuild
	// command state from scratch (re-synthesis, re-acquisition).
	coldRebuild = 15 * time.Second
	// warmHandover is how long a warm-promoted successor takes to load
	// the last checkpoint and resume.
	warmHandover = 500 * time.Millisecond
)

// DefaultMission returns an evacuation-style mission over the given
// area: visual+thermal coverage with modest compute.
func DefaultMission(area geo.Rect) Mission {
	return Mission{
		Goal: compose.Goal{
			Name:         "evacuation",
			Area:         area,
			Modalities:   0, // any modality may detect incidents
			CoverageFrac: 0.7,
		},
		Command:          CommandIntent,
		HierarchyLevels:  3,
		IncidentsPerMin:  6,
		IncidentDeadline: 30 * time.Second,
	}
}

// normalized fills mission defaults.
func (m Mission) normalized() Mission {
	if m.IncidentDeadline <= 0 {
		m.IncidentDeadline = 30 * time.Second
	}
	if m.HierarchyLevels < 1 {
		m.HierarchyLevels = 1
	}
	if m.IncidentsPerMin <= 0 {
		m.IncidentsPerMin = 6
	}
	return m
}
