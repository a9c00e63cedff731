package core

import "iobt/internal/asset"

// HealthState is the mission health: the runtime's own summary of
// whether the decision loop and coverage goal are intact. The paper's
// operating regime makes degradation normal, not exceptional — the
// state machine gives reflexes and reports a shared vocabulary.
//
//	Healthy  — coverage goal met, command channel delivering.
//	Degraded — a reflex is compensating: coverage relaxed, command
//	           fallen back to intent, or recent delivery failures.
//	Critical — the mission cannot meet even its relaxed goal, or the
//	           command channel is gone with no reflex to absorb it.
type HealthState int

// Health states.
const (
	Healthy HealthState = iota + 1
	Degraded
	Critical
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// computeHealth derives the state from current conditions. covered is
// the caller's latest coverage evaluation (passed in so event-path
// callers can avoid re-evaluating the full cell grid).
func (r *Runtime) computeHealth(covered bool) HealthState {
	atFloor := false
	if r.relaxSteps > 0 {
		atFloor = r.req.NeedCells <= r.relaxFloorCells()
	}
	cmdLost := false
	if r.Mission.Command == CommandHierarchy && !r.fellBack {
		cmdLost = r.sink == asset.None || !r.sinkAlive()
	}
	switch {
	case !covered && (!r.Mission.Degradation || atFloor):
		return Critical
	case cmdLost && !r.Mission.Degradation && r.orderFails >= fallbackAfter:
		return Critical
	case !covered || cmdLost || r.fellBack || r.relaxSteps > 0 || r.orderFails > 0:
		return Degraded
	default:
		return Healthy
	}
}

// setHealth applies a transition, counting changes.
func (r *Runtime) setHealth(next HealthState) {
	if next == r.health {
		return
	}
	r.health = next
	r.Metrics.HealthChanges.Inc()
}
