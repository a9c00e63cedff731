package fault

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestHarnessReportEndToEnd drives Run with synthetic mission hooks whose degradation is scripted in virtual time, so every report
// field is checkable against the script: a detected-and-recovered
// command-post crash with a measured recovery gap, and a second crash
// near the horizon that never recovers. (The absorbed branch lives in
// TestHarnessAbsorbedFault — a fault report scans every sample after
// its onset, so an early harmless fault here would be blamed for the
// later crash dips.)
func TestHarnessReportEndToEnd(t *testing.T) {
	tgt := testTarget(t, 51)

	// Scripted mission state, advanced once per virtual second. The post
	// goes down at each CrashPost fault and is repaired (once) at 90s.
	var (
		done, total, lost uint64
		evidence          float64
		tracks            = 5
		postDown          bool
	)
	tgt.CrashPost = func() {
		postDown = true
		evidence, tracks = 0, 0
	}
	tgt.Eng.Schedule(90*time.Second, "test.repair", func() {
		postDown = false
		tracks = 5
	})
	ticker := tgt.Eng.Every(time.Second, "test.mission", func() {
		total += 10
		if postDown {
			lost += 10
		} else {
			done += 10
			evidence++
		}
	})
	defer ticker.Stop()

	plan := &Plan{Name: "report"}
	// Crash with repair at 90s: detected, recovered, gap measured.
	plan.Add(Fault{Kind: CrashPost, At: 60 * time.Second})
	// Crash 5s before the horizon: detected, never recovers.
	plan.Add(Fault{Kind: CrashPost, At: 115 * time.Second})

	tgt.Goodput = func() (uint64, uint64) { return done, total }
	tgt.Recovery = RecoveryHooks{
		OrdersDelivered: func() uint64 { return done },
		OrdersLost:      func() uint64 { return lost },
		TrustEvidence:   func() float64 { return evidence },
		ConfirmedTracks: func() int { return tracks },
		PostUp:          func() bool { return !postDown },
	}
	rep, err := Run(context.Background(), tgt, plan, 2*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Pre-fault the script delivers everything: baseline 1.0. The last
	// window straddles the unrecovered second crash, so final is lower.
	if rep.Baseline != 1.0 {
		t.Errorf("baseline = %.2f, want 1.0", rep.Baseline)
	}
	if rep.Final >= rep.Baseline {
		t.Errorf("final %.2f not below baseline with a crash at the horizon", rep.Final)
	}
	if rep.Killed != 2 {
		t.Errorf("killed = %d, want 2 (one per crash)", rep.Killed)
	}

	if len(rep.Faults) != 2 {
		t.Fatalf("fault reports = %d, want 2", len(rep.Faults))
	}
	crash, late := rep.Faults[0], rep.Faults[1]
	if !crash.Detected || !crash.Recovered {
		t.Fatalf("repaired crash detected=%v recovered=%v, want both", crash.Detected, crash.Recovered)
	}
	if crash.TimeToDetect <= 0 || crash.TimeToDetect > 10*time.Second {
		t.Errorf("time-to-detect %v outside the scripted dip", crash.TimeToDetect)
	}
	// Repair lands 30s after onset; the windowed signal recrosses 0.9
	// within one smoothing window of it.
	if crash.TimeToRecover < 30*time.Second || crash.TimeToRecover > 45*time.Second {
		t.Errorf("time-to-recover %v, want 30s–45s", crash.TimeToRecover)
	}
	if crash.DegradedGoodput <= 0 || crash.DegradedGoodput >= rep.Baseline {
		t.Errorf("degraded goodput %.2f not inside (0, baseline)", crash.DegradedGoodput)
	}
	if !late.Detected || late.Recovered {
		t.Errorf("horizon crash detected=%v recovered=%v, want detected only", late.Detected, late.Recovered)
	}

	// Recovery gaps: one per CrashPost fault, in onset order.
	if len(rep.Recovery) != 2 {
		t.Fatalf("recovery gaps = %d, want 2", len(rep.Recovery))
	}
	first, second := rep.Recovery[0], rep.Recovery[1]
	if !first.Resumed {
		t.Fatalf("repaired crash not resumed: %+v", first)
	}
	if first.TimeToResume < 30*time.Second || first.TimeToResume > 35*time.Second {
		t.Errorf("time-to-resume %v, want just past the 30s outage", first.TimeToResume)
	}
	// 30s outage at 10 lost orders/s.
	if first.OrdersLost < 280 || first.OrdersLost > 320 {
		t.Errorf("orders lost %d, want ≈300", first.OrdersLost)
	}
	// The crash wiped ~59 evidence points; ~1/s accrues back by resumption.
	if first.StaleTrust < 50 {
		t.Errorf("stale trust %.1f, want most of the pre-crash ledger", first.StaleTrust)
	}
	if first.TrackFrag != 5 {
		t.Errorf("track frag = %d, want 5", first.TrackFrag)
	}
	if second.Resumed {
		t.Errorf("horizon crash resumed: %+v", second)
	}
	if second.TimeToResume != 5*time.Second {
		t.Errorf("unresumed gap observed %v, want horizon-At = 5s", second.TimeToResume)
	}

	// The rendered report names every scripted outcome.
	text := rep.String()
	for _, want := range []string{
		"fault report: baseline goodput 1.00",
		"NOT RECOVERED",
		"resumed in",
		"NOT RESUMED",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestHarnessAbsorbedFault pins the absorbed branch: a fault the
// mission rides out without a goodput dip is reported undetected and
// nothing else.
func TestHarnessAbsorbedFault(t *testing.T) {
	tgt := testTarget(t, 52)
	var done, total uint64
	ticker := tgt.Eng.Every(time.Second, "test.mission", func() {
		total += 10
		done += 10
	})
	defer ticker.Stop()

	plan := &Plan{Name: "absorbed"}
	plan.Add(Fault{Kind: JamWave, At: 10 * time.Second, Duration: 5 * time.Second, Intensity: 0.1})
	tgt.Goodput = func() (uint64, uint64) { return done, total }
	rep, err := Run(context.Background(), tgt, plan, time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Baseline != 1.0 || rep.Final != 1.0 {
		t.Errorf("clean run baseline=%.2f final=%.2f, want 1.0/1.0", rep.Baseline, rep.Final)
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Detected {
		t.Fatalf("absorbed fault misreported: %+v", rep.Faults)
	}
	if !strings.Contains(rep.String(), "absorbed") {
		t.Errorf("report text missing the absorbed marker:\n%s", rep.String())
	}
}
