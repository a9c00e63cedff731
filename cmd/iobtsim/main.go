// Command iobtsim runs one IoBT mission end to end and prints its
// metrics. Its flags state one verify.Scenario, which it prints as
// scenario text (a .scn file that verify.ParseScenario and the mission
// service's POST /missions read) and runs with verify.Run: build the
// world, synthesize a composite asset for the mission goal, execute
// with reflexive adaptation under the fault plan, every mission
// invariant armed.
//
// Usage:
//
//	iobtsim -assets 500 -command intent -minutes 10
//	iobtsim -command hierarchy -levels 4 -jam -terrain urban
//	iobtsim -command hierarchy -reliable -degrade -faults standard
//	iobtsim -spec mission.txt             # intent-DSL mission, starting at its `mission "name"` line
//	iobtsim -faults plan.txt             # custom fault plan in the DSL
//	iobtsim -checkpoint 15s -faults plan.txt   # warm-failover-capable run
//	iobtsim -faults standard -replay-verify    # run twice more, diff decision journals
//	iobtsim -faults standard -verify           # exit nonzero on any invariant violation
//	iobtsim -gossip -verify                    # replicate the COP over epidemic gossip, CRDT invariants armed
//	iobtsim -shards 4 -assets 5000             # spatially sharded engine: COP dissemination on 4 parallel shards
//	iobtsim -shards 8 -replay-verify           # prove the 1-shard and 8-shard runs are byte-identical
//
// -jam adds the fault `jam at=2m0s for=<horizon>` over the middle third
// of the map at intensity 0.9; -churn and -gossip set the scenario's
// churn and gossip keys; -spec makes the spec file the scenario's
// intent section, in place of -command, -levels and -rate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"iobt/internal/checkpoint"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/verify"
)

// errVerification marks a run that completed but failed verification
// (-verify violations or a -replay-verify divergence). main maps it to
// a distinct exit code so harnesses can tell "the mission is wrong"
// from "the tool could not run".
var errVerification = errors.New("verification failed")

// testExtraInvariants, when set by tests, are armed alongside the
// mission set — the only way to force a violation deterministically
// without breaking the simulation itself.
var testExtraInvariants []verify.InvariantMaker

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iobtsim:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a run error to the process exit status: 2 for a
// verification failure, 1 for everything else.
func exitCode(err error) int {
	if errors.Is(err, errVerification) {
		return 2
	}
	return 1
}

func run(args []string) error {
	fs := flag.NewFlagSet("iobtsim", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "deterministic seed")
		assets  = fs.Int("assets", 500, "approximate asset count")
		terrain = fs.String("terrain", "open", "terrain: open|urban|sparse")
		size    = fs.Float64("size", 1500, "map side length (m)")
		command = fs.String("command", "intent", "command model: intent|hierarchy")
		levels  = fs.Int("levels", 3, "hierarchy depth (hierarchy only)")
		minutes = fs.Int("minutes", 10, "simulated mission duration")
		rate    = fs.Float64("rate", 20, "incidents per simulated minute")
		jam     = fs.Bool("jam", false, "activate a central jammer at t=2min")
		churn   = fs.Bool("churn", false, "enable asset churn (2%/min failures)")
		spec    = fs.String("spec", "", "mission spec file in the intent DSL (overrides -command/-levels/-rate)")
		faults  = fs.String("faults", "", `fault plan: "standard" or a plan file in the fault DSL`)
		degrade = fs.Bool("degrade", false, "enable graceful-degradation reflexes (command fallback, coverage relaxation)")
		reliab  = fs.Bool("reliable", false, "carry command traffic over the ARQ layer")
		ckEvery = fs.Duration("checkpoint", 0, "checkpoint cadence (0 disables; enables `failover warm` in fault plans)")
		replay  = fs.Bool("replay-verify", false, "run the scenario twice more and diff the decision journals (determinism check)")
		verif   = fs.Bool("verify", false, "exit nonzero on any invariant violation")
		gossip  = fs.Bool("gossip", false, "replicate the common operational picture over an epidemic gossip overlay among composite members")
		shards  = fs.Int("shards", 0, "run the spatially sharded engine with this many shards (COP dissemination scenario; 0 = classic sequential mission)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
		memProf = fs.String("memprofile", "", "write an allocation profile at exit to this file (pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Run(0) means "until the queue drains", which the mesh refresh
	// ticker never does, and a negative horizon runs nothing. Past
	// maxMinutes the horizon wraps negative.
	const maxMinutes = math.MaxInt64 / int64(time.Minute)
	if *minutes <= 0 || int64(*minutes) > maxMinutes {
		return fmt.Errorf("-minutes must be positive and at most %d, got %d", maxMinutes, *minutes)
	}
	// A NaN rate arms the incident ticker at its 1ns floor and never
	// ends; core would silently replace a non-positive rate or asset
	// count with its default, and a non-positive size is a 0 m map.
	if !(*rate > 0) || math.IsInf(*rate, 0) {
		return fmt.Errorf("-rate must be a positive finite number, got %g", *rate)
	}
	if !(*size > 0) || math.IsInf(*size, 0) {
		return fmt.Errorf("-size must be a positive finite number, got %g", *size)
	}
	if *assets <= 0 {
		return fmt.Errorf("-assets must be positive, got %d", *assets)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be 0 (classic engine) or positive, got %d", *shards)
	}
	if *ckEvery < 0 || *ckEvery > 0 && *ckEvery < checkpoint.MinEvery {
		return fmt.Errorf("-checkpoint must be 0 or at least %s, got %s", checkpoint.MinEvery, *ckEvery)
	}
	horizon := time.Duration(*minutes) * time.Minute
	if *shards > 0 {
		// The sharded workload reads only these flags; any other one
		// set would be silently dropped.
		var unread string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "assets", "minutes", "shards", "replay-verify", "verify", "cpuprofile", "memprofile":
			default:
				if unread == "" {
					unread = f.Name
				}
			}
		})
		if unread != "" {
			return fmt.Errorf("-%s has no effect with -shards", unread)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		// The alloc_space profile is the one the zero-alloc work reads:
		// it records every allocation since start, not just live heap.
		defer func() {
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "iobtsim: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *shards > 0 {
		return runSharded(*seed, *shards, *assets, horizon, *replay, *verif)
	}

	s := verify.Scenario{Seed: *seed, Assets: *assets, Size: *size, Terrain: *terrain,
		Reliable: *reliab, Degrade: *degrade, Checkpoint: *ckEvery, Horizon: horizon,
		Churn: *churn, Gossip: *gossip}
	if *spec != "" {
		raw, err := os.ReadFile(*spec)
		if err != nil {
			return fmt.Errorf("read spec: %w", err)
		}
		s.Intent = string(raw)
	} else {
		s.Command, s.Levels, s.Rate, s.Coverage = *command, *levels, *rate, 0.5
	}
	if *faults == "standard" {
		s.Plan = fault.StandardPlan(*size)
	} else if *faults != "" {
		raw, err := os.ReadFile(*faults)
		if err != nil {
			return fmt.Errorf("read fault plan: %w", err)
		}
		if s.Plan, err = fault.Parse(string(raw)); err != nil {
			return err
		}
	}
	if *jam {
		if s.Plan == nil {
			s.Plan = &fault.Plan{Name: "jam"}
		}
		s.Plan.Add(fault.Fault{Kind: fault.JamWave, At: 2 * time.Minute, Duration: horizon,
			Area:      geo.Circle{Center: geo.Point{X: *size / 2, Y: *size / 2}, Radius: *size / 3},
			Intensity: 0.9})
	}
	// The run is exactly the text it prints: what does not parse back
	// does not run.
	s, err := verify.ParseScenario(s.String())
	if err != nil {
		return err
	}
	fmt.Print(s)

	o := verify.Run(s, testExtraInvariants...)
	if o.Skipped {
		return fmt.Errorf("synthesis: %w", o.Err)
	}
	met := o.Metrics
	fmt.Printf("\nmission results (%d simulated minutes):\n", *minutes)
	fmt.Printf("  incidents:        %d\n", met.Incidents.Value())
	fmt.Printf("  detected:         %d (%.0f%%)\n", met.Detected.Value(), 100*met.DetectionRate())
	fmt.Printf("  acted:            %d\n", met.Acted.Value())
	fmt.Printf("  on time:          %d (success %.0f%%)\n", met.OnTime.Value(), 100*met.SuccessRate())
	fmt.Printf("  decision latency: %s\n", met.DecisionLatency.Summarize())
	fmt.Printf("  reflex repairs:   %d\n", met.Repairs.Value())
	fmt.Printf("  undeliverable:    %d\n", met.Undeliverable.Value())
	if s.Degrade {
		fmt.Printf("  degradation: fallbacks=%d restores=%d relaxations=%d\n",
			met.Fallbacks.Value(), met.Restores.Value(), met.Relaxations.Value())
	}
	if s.Checkpoint > 0 {
		fmt.Printf("  checkpoints: taken=%d failovers=%d\n", o.Checkpoints, met.Failovers.Value())
	}
	fmt.Printf("  health changes:   %d\n", met.HealthChanges.Value())
	fmt.Printf("  fingerprint: %016x\n", o.Fingerprint)
	if s.Plan != nil && o.Report != nil {
		fmt.Printf("\n%s", o.Report)
	}
	fmt.Printf("  %s\n", o.Summary)
	if *verif && len(o.Violations) > 0 {
		return fmt.Errorf("%w: %s", errVerification, o.Summary)
	}
	if *replay {
		if err := verify.ReplayEquivalence(s); err != nil {
			return fmt.Errorf("%w: %v", errVerification, err)
		}
		fmt.Println("\nreplay verification OK: two runs produced byte-identical decision journals")
	}
	return nil
}
