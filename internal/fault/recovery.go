package fault

import (
	"fmt"
	"strings"
	"time"
)

// RecoveryHooks are the mission surfaces Run samples to measure the
// recovery gap around each `crash post` fault. core.World.FaultTarget
// provides the set; tests can assemble their own. Nil members are simply
// not sampled.
type RecoveryHooks struct {
	// OrdersDelivered is the cumulative successful command-channel
	// deliveries.
	OrdersDelivered func() uint64
	// OrdersLost is the cumulative terminal command failures
	// (undeliverable incidents).
	OrdersLost func() uint64
	// TrustEvidence is the evidence mass currently in the trust ledger.
	TrustEvidence func() float64
	// ConfirmedTracks is the current confirmed-track count.
	ConfirmedTracks func() int
	// PostUp reports whether a command post is currently standing.
	// Resumption requires it: deliveries completed by exchanges already
	// in flight when the post died must not count as recovery. Nil means
	// "always up".
	PostUp func() bool
}

// RecoveryGap quantifies what one command-post crash cost the mission.
type RecoveryGap struct {
	// CrashAt is the crash onset.
	CrashAt time.Duration
	// OrdersLost counts terminal command failures from the crash until
	// resumption (or the horizon, when command never resumed).
	OrdersLost uint64
	// Resumed is whether any command delivery succeeded after the crash;
	// TimeToResume is crash-to-first-delivery (crash-to-horizon when not
	// resumed).
	Resumed      bool
	TimeToResume time.Duration
	// StaleTrust is the trust evidence mass lost across the crash: what
	// the ledger held just before the post died minus what the promoted
	// successor holds at resumption. A warm restore recovers everything
	// up to the checkpoint age; a cold rebuild loses it all.
	StaleTrust float64
	// TrackFrag is the track-picture fragmentation: confirmed tracks
	// held just before the crash minus the post-crash minimum.
	TrackFrag int
}

// recoveryState accumulates per-crash measurements during the run.
type recoveryState struct {
	at      time.Duration
	started bool
	// Baselines sampled at the last tick before the crash took effect.
	lostAt     uint64
	evidenceAt float64
	tracksAt   int
	// Post-crash observations.
	minTracks  int
	lostSeen   uint64
	resumed    bool
	resumeAt   time.Duration
	staleTrust float64
}

// recoveryMonitor drives RecoveryGap measurement from Run's sampling tick.
type recoveryMonitor struct {
	hooks RecoveryHooks
	crash []*recoveryState
	// prev* hold the previous tick's samples, so a crash's baseline is
	// what the mission held just *before* the post died (the crash tick
	// itself may share a timestamp with the state wipe).
	prevDelivered, prevLost uint64
	prevEvidence            float64
	prevTracks              int
}

func newRecoveryMonitor(hooks RecoveryHooks, plan *Plan) *recoveryMonitor {
	m := &recoveryMonitor{hooks: hooks}
	for _, f := range plan.Faults {
		if f.Kind == CrashPost {
			m.crash = append(m.crash, &recoveryState{at: f.At})
		}
	}
	if len(m.crash) == 0 {
		return nil
	}
	return m
}

func (m *recoveryMonitor) sample(now time.Duration) {
	var delivered, lost uint64
	var evidence float64
	var tracks int
	if m.hooks.OrdersDelivered != nil {
		delivered = m.hooks.OrdersDelivered()
	}
	if m.hooks.OrdersLost != nil {
		lost = m.hooks.OrdersLost()
	}
	if m.hooks.TrustEvidence != nil {
		evidence = m.hooks.TrustEvidence()
	}
	if m.hooks.ConfirmedTracks != nil {
		tracks = m.hooks.ConfirmedTracks()
	}
	postUp := true
	if m.hooks.PostUp != nil {
		postUp = m.hooks.PostUp()
	}
	for _, rc := range m.crash {
		if now < rc.at {
			continue
		}
		if !rc.started {
			rc.started = true
			rc.lostAt = m.prevLost
			rc.evidenceAt, rc.tracksAt = m.prevEvidence, m.prevTracks
			rc.minTracks = m.prevTracks
		}
		// The crash tick itself (now == at) samples mid-destruction state
		// — the fault event fires before the harness tick at a shared
		// timestamp — so post-crash observation starts strictly after it.
		if now <= rc.at {
			continue
		}
		if tracks < rc.minTracks {
			rc.minTracks = tracks
		}
		if !rc.resumed {
			rc.lostSeen = lost
			// Resumption = a delivery observed this tick while a promoted
			// post stands. The PostUp gate keeps exchanges that were
			// already in flight at the crash — whose ACKs drain to live
			// senders regardless — from counting as recovery.
			if postUp && delivered > m.prevDelivered {
				rc.resumed = true
				rc.resumeAt = now
				rc.staleTrust = rc.evidenceAt - evidence
				if rc.staleTrust < 0 {
					rc.staleTrust = 0
				}
			}
		}
	}
	m.prevDelivered, m.prevLost = delivered, lost
	m.prevEvidence, m.prevTracks = evidence, tracks
}

// gaps finalizes the measurements at the end of the run.
func (m *recoveryMonitor) gaps(horizon time.Duration) []RecoveryGap {
	out := make([]RecoveryGap, 0, len(m.crash))
	for _, rc := range m.crash {
		g := RecoveryGap{CrashAt: rc.at, Resumed: rc.resumed}
		if rc.started {
			g.OrdersLost = rc.lostSeen - rc.lostAt
			g.TrackFrag = rc.tracksAt - rc.minTracks
			if g.TrackFrag < 0 {
				g.TrackFrag = 0
			}
		}
		if rc.resumed {
			g.TimeToResume = rc.resumeAt - rc.at
			g.StaleTrust = rc.staleTrust
		} else {
			g.TimeToResume = horizon - rc.at
			g.StaleTrust = rc.evidenceAt // never recovered: all of it stale
		}
		out = append(out, g)
	}
	return out
}

// String renders one gap as an aligned text fragment.
func (g RecoveryGap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crash at %s: lost %d orders", g.CrashAt, g.OrdersLost)
	if g.Resumed {
		fmt.Fprintf(&b, ", resumed in %.1fs", g.TimeToResume.Seconds())
	} else {
		fmt.Fprintf(&b, ", NOT RESUMED (%.0fs observed)", g.TimeToResume.Seconds())
	}
	fmt.Fprintf(&b, ", stale trust %.1f, track frag %d", g.StaleTrust, g.TrackFrag)
	return b.String()
}
