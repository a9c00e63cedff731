package fault

import (
	"context"
	"fmt"
	"strings"
	"time"
)

const (
	checkEvery = time.Second // sampling cadence
	window     = 10          // goodput smoothing window, in samples
	// detectFrac and recoverFrac are the degradation thresholds as
	// fractions of the pre-fault baseline.
	detectFrac  = 0.7
	recoverFrac = 0.9
)

// sample is one goodput observation. goodput is the windowed ratio
// Σdone/Σtotal over the last window ticks — a per-tick ratio would
// alias against periodic incident generation (completions lag their
// incidents, so they systematically land in different ticks).
type sample struct {
	at       time.Duration
	goodput  float64
	hasTotal bool // some incidents occurred within the window
	// cumDone/cumTotal are the cumulative counters at this tick; their
	// ratio is the all-history goodput used for the pre-fault baseline.
	cumDone, cumTotal uint64
}

// FaultReport is the recovery record for one injected fault.
type FaultReport struct {
	Fault Fault
	// Detected is whether goodput dropped below the detect threshold
	// after onset; TimeToDetect is onset-to-drop.
	Detected     bool
	TimeToDetect time.Duration
	// Recovered is whether goodput returned above the recover threshold
	// after detection; TimeToRecover is onset-to-recovery.
	Recovered     bool
	TimeToRecover time.Duration
	// DegradedGoodput is the mean goodput between detection and
	// recovery (or the horizon).
	DegradedGoodput float64
}

// Report is the outcome of one Run.
type Report struct {
	// Baseline is the mean goodput before the first fault onset.
	Baseline float64
	// Final is the mean goodput over the last window samples.
	Final  float64
	Faults []FaultReport
	// Recovery holds one gap measurement per `crash post` fault (empty
	// when the plan has none or the target has no Recovery hooks).
	Recovery []RecoveryGap
	// Killed is the number of assets the injector destroyed.
	Killed uint64
}

// String renders the report as an aligned text block.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault report: baseline goodput %.2f, final %.2f, %d assets destroyed\n",
		r.Baseline, r.Final, r.Killed)
	for _, fr := range r.Faults {
		fmt.Fprintf(&b, "  %-52s", fr.Fault.String())
		switch {
		case !fr.Detected:
			b.WriteString("  absorbed (no degradation)")
		case !fr.Recovered:
			fmt.Fprintf(&b, "  detect %5.1fs  NOT RECOVERED  degraded goodput %.2f",
				fr.TimeToDetect.Seconds(), fr.DegradedGoodput)
		default:
			fmt.Fprintf(&b, "  detect %5.1fs  recover %5.1fs  degraded goodput %.2f",
				fr.TimeToDetect.Seconds(), fr.TimeToRecover.Seconds(), fr.DegradedGoodput)
		}
		b.WriteByte('\n')
	}
	for _, g := range r.Recovery {
		fmt.Fprintf(&b, "  %s\n", g)
	}
	return b.String()
}

// Run wraps a mission run with the plan: it injects the plan onto t,
// samples t's goodput and recovery hooks every checkEvery while driving
// the engine for horizon under ctx, and returns the per-fault recovery
// report, or ctx's cancellation cause. The caller builds the world and
// starts the mission runtime (and arms a verify.Registry on the engine
// for continuous invariant checks).
func Run(ctx context.Context, t Target, plan *Plan, horizon time.Duration) (*Report, error) {
	inj := Apply(t, plan)

	var (
		samples   []sample
		lastDone  uint64
		lastTotal uint64
		dones     []uint64
		totals    []uint64
	)
	var recMon *recoveryMonitor
	if t.Recovery.OrdersDelivered != nil || t.Recovery.OrdersLost != nil {
		recMon = newRecoveryMonitor(t.Recovery, plan)
	}
	tick := t.Eng.Every(checkEvery, "fault.harness", func() {
		now := t.Eng.Now()
		if recMon != nil {
			recMon.sample(now)
		}
		if t.Goodput != nil {
			done, total := t.Goodput()
			dones = append(dones, done-lastDone)
			totals = append(totals, total-lastTotal)
			lastDone, lastTotal = done, total
			var sd, st uint64
			for i := max(0, len(totals)-window); i < len(totals); i++ {
				sd += dones[i]
				st += totals[i]
			}
			s := sample{at: now, goodput: 1, hasTotal: st > 0,
				cumDone: done, cumTotal: total}
			if st > 0 {
				s.goodput = float64(sd) / float64(st)
			} else if len(samples) > 0 {
				s.goodput = samples[len(samples)-1].goodput // no traffic: hold
			}
			samples = append(samples, s)
		}
	})
	err := t.Eng.RunContext(ctx, horizon)
	tick.Stop()
	if err != nil {
		return nil, err
	}

	rep := &Report{Killed: inj.Killed.Value()}
	rep.Baseline = baseline(plan, samples)
	if n := len(samples); n > 0 {
		lo := max(0, n-window)
		sum := 0.0
		for _, s := range samples[lo:] {
			sum += s.goodput
		}
		rep.Final = sum / float64(n-lo)
	}
	for _, f := range plan.Faults {
		rep.Faults = append(rep.Faults, faultReport(f, samples, rep.Baseline))
	}
	if recMon != nil {
		rep.Recovery = recMon.gaps(horizon)
	}
	return rep, nil
}

// baseline is the cumulative goodput (done/total over the whole
// pre-fault period) at the last sample strictly before the first fault
// onset, 1.0 when no pre-fault traffic exists. The cumulative ratio is
// used rather than the windowed one because a short window over a low
// incident rate holds too few events to anchor thresholds on.
func baseline(plan *Plan, samples []sample) float64 {
	first := time.Duration(-1)
	for _, f := range plan.Faults {
		if first < 0 || f.At < first {
			first = f.At
		}
	}
	base := 1.0
	for _, s := range samples {
		if first >= 0 && s.at >= first {
			break
		}
		if s.cumTotal > 0 {
			base = float64(s.cumDone) / float64(s.cumTotal)
		}
	}
	return base
}

// faultReport scans the sample series from the fault's onset for the
// degradation dip and the recovery crossing.
func faultReport(f Fault, samples []sample, base float64) FaultReport {
	fr := FaultReport{Fault: f}
	detectAt := time.Duration(-1)
	recoverAt := time.Duration(-1)
	degSum, degN := 0.0, 0
	for _, s := range samples {
		if s.at < f.At {
			continue
		}
		if detectAt < 0 {
			if s.goodput < detectFrac*base {
				detectAt = s.at
				fr.Detected = true
				fr.TimeToDetect = s.at - f.At
			}
			continue
		}
		if recoverAt < 0 {
			if s.hasTotal {
				degSum += s.goodput
				degN++
			}
			if s.goodput >= recoverFrac*base {
				recoverAt = s.at
				fr.Recovered = true
				fr.TimeToRecover = s.at - f.At
			}
		}
	}
	if degN > 0 {
		fr.DegradedGoodput = degSum / float64(degN)
	}
	return fr
}
