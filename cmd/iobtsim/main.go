// Command iobtsim runs one IoBT mission scenario end to end: build a
// battlefield world, synthesize a composite asset for the mission goal,
// execute with reflexive adaptation under optional jamming and churn,
// and print the mission metrics.
//
// Usage:
//
//	iobtsim -assets 500 -command intent -minutes 10
//	iobtsim -command hierarchy -levels 4 -jam -terrain urban
//	iobtsim -command hierarchy -reliable -degrade -faults standard
//	iobtsim -faults plan.txt             # custom fault plan in the DSL
//	iobtsim -checkpoint 15s -faults plan.txt   # warm-failover-capable run
//	iobtsim -faults standard -replay-verify    # run twice, diff decision logs
//	iobtsim -faults standard -verify           # arm the invariant registry, fail on violation
//	iobtsim -gossip -verify                    # replicate the COP over epidemic gossip, CRDT invariants armed
//	iobtsim -shards 4 -assets 5000             # spatially sharded engine: COP dissemination on 4 parallel shards
//	iobtsim -shards 8 -replay-verify           # prove the 1-shard and 8-shard runs are byte-identical
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"iobt/internal/asset"
	"iobt/internal/attack"
	"iobt/internal/checkpoint"
	"iobt/internal/cop"
	"iobt/internal/core"
	"iobt/internal/fault"
	"iobt/internal/geo"
	"iobt/internal/intent"
	"iobt/internal/mesh"
	"iobt/internal/verify"
)

// errVerification marks a run that completed but failed verification
// (-verify violations or a -replay-verify divergence). main maps it to
// a distinct exit code so harnesses can tell "the mission is wrong"
// from "the tool could not run".
var errVerification = errors.New("verification failed")

// testExtraInvariants, when set by tests, returns additional invariants
// armed alongside the mission set — the only way to force a violation
// deterministically without breaking the simulation itself.
var testExtraInvariants func() []verify.Invariant

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
		replay  = fs.Bool("replay-verify", false, "run the scenario twice and diff the decision journals (determinism check)")
		verif   = fs.Bool("verify", false, "arm the full invariant registry during the run and exit nonzero on any violation")
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
		return runSharded(*seed, *shards, *assets, time.Duration(*minutes)*time.Minute, *replay, *verif)
	}

	var plan *fault.Plan
	if *faults == "standard" {
		plan = fault.StandardPlan(*size)
	} else if *faults != "" {
		raw, err := os.ReadFile(*faults)
		if err != nil {
			return fmt.Errorf("read fault plan: %w", err)
		}
		plan, err = fault.Parse(string(raw))
		if err != nil {
			return err
		}
	}

	// execute builds a fresh world and runs the whole scenario once.
	// Replay verification calls it twice with journals and diffs them;
	// the quiet flag mutes the per-run narration on the second pass.
	execute := func(journal *checkpoint.Journal, quiet bool) error {
		var terr *geo.Terrain
		switch *terrain {
		case "open":
			terr = geo.NewOpenTerrain(*size, *size)
		case "urban":
			terr = geo.NewUrbanTerrain(*size, *size, 100)
		case "sparse":
			terr = geo.NewSparseTerrain(*size, *size)
		default:
			return fmt.Errorf("unknown terrain %q", *terrain)
		}

		cfg := core.WorldConfig{Seed: *seed, Terrain: terr, Assets: *assets}
		if *churn {
			cfg.Churn = &asset.ChurnConfig{FailRatePerMin: 0.02, ArriveRatePerMin: 3, ReviveProb: 0.5}
		}
		w := core.NewWorld(cfg)
		defer w.Stop()

		var m core.Mission
		if *spec != "" {
			raw, err := os.ReadFile(*spec)
			if err != nil {
				return fmt.Errorf("read spec: %w", err)
			}
			m, err = intent.Parse(string(raw))
			if err != nil {
				return err
			}
		} else {
			pad := *size / 5
			m = core.DefaultMission(geo.NewRect(
				geo.Point{X: pad, Y: pad}, geo.Point{X: *size - pad, Y: *size - pad}))
			m.Goal.CoverageFrac = 0.5
			m.IncidentsPerMin = *rate
			m.HierarchyLevels = *levels
			switch *command {
			case "intent":
				m.Command = core.CommandIntent
			case "hierarchy":
				m.Command = core.CommandHierarchy
			default:
				return fmt.Errorf("unknown command model %q", *command)
			}
		}

		m.Degradation = m.Degradation || *degrade
		m.ReliableOrders = m.ReliableOrders || *reliab
		m.CheckpointEvery = *ckEvery

		r := core.NewRuntime(w, m)
		r.SetJournal(journal)
		if err := r.Synthesize(); err != nil {
			return fmt.Errorf("synthesis: %w", err)
		}
		comp := r.Composite()
		if !quiet {
			fmt.Printf("world: %d assets on %s terrain (%gm)\n", w.Pop.Len(), *terrain, *size)
			fmt.Printf("composite: %d members, coverage %.2f, connected %v, mean trust %.2f\n",
				len(comp.Members), comp.Assurance.CoverageFrac, comp.Assurance.Connected,
				comp.Assurance.MeanTrust)
			if *ckEvery > 0 {
				fmt.Printf("checkpoints: every %s\n", *ckEvery)
			}
		}

		if err := r.Start(); err != nil {
			return err
		}
		// The invariant registry sweeps every second under a fault plan or
		// -verify (and once at the horizon regardless); -verify turns any
		// violation into a nonzero exit.
		reg := verify.NewRegistry()
		reg.Add(verify.MissionInvariants(w, r)...)
		if testExtraInvariants != nil {
			reg.Add(testExtraInvariants()...)
		}
		// The gossip overlay enrolls every composite member with a CRDT
		// picture replica: the command post periodically folds its world
		// view into its own replica and gossips the encoded state, every
		// member merges what arrives, and the overlay conservation plus
		// picture-monotonicity invariants ride the same registry as the
		// mission set.
		var g *mesh.Gossip
		var gPics map[mesh.NodeID]*cop.Picture
		if *gossip {
			members := append([]asset.ID(nil), comp.Members...)
			if post := r.Sink(); post != asset.None {
				found := false
				for _, id := range members {
					if id == post {
						found = true
						break
					}
				}
				if !found {
					members = append(members, post)
				}
			}
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			g = mesh.NewGossip(w.Net, mesh.GossipConfig{})
			gPics = make(map[mesh.NodeID]*cop.Picture, len(members))
			for _, id := range members {
				node := id
				gPics[id] = cop.NewPicture(id)
				prev := w.Net.Handler(id)
				g.Join(id, func(msg mesh.Message) {
					if msg.Kind == "cop" {
						if enc, ok := msg.Payload.([]byte); ok {
							_ = gPics[node].MergeEncoded(enc) // a corrupted frame is rejected whole and cannot regress the replica
						}
						return
					}
					if prev != nil {
						prev(msg)
					}
				})
			}
			g.Start()
			post := r.Sink()
			w.Eng.Every(10*time.Second, "iobtsim.cop", func() {
				p := gPics[post]
				if p == nil {
					return
				}
				core.UpdatePicture(p, w, r, core.DefaultCOPCell)
				enc := p.Encode()
				if _, err := g.Publish(post, "cop", float64(len(enc)), enc); err != nil {
					return
				}
			})
			reg.Add(verify.GossipConservation(g))
			reg.Add(verify.PictureMonotone("iobtsim", func() []*cop.Picture {
				out := make([]*cop.Picture, 0, len(members))
				for _, id := range members {
					out = append(out, gPics[id])
				}
				return out
			}))
			if !quiet {
				fmt.Printf("gossip overlay: %d members, anti-entropy every %s\n",
					len(members), g.Config().AntiEntropyEvery)
			}
		}
		if *jam {
			w.Jam.Add(attack.Jammer{
				Area:      geo.Circle{Center: terr.Bounds.Center(), Radius: *size / 3},
				Intensity: 0.9,
				From:      2 * time.Minute,
			})
			if !quiet {
				fmt.Println("jammer armed: center of map at t=2min")
			}
		}
		horizon := time.Duration(*minutes) * time.Minute
		if plan != nil || *verif {
			reg.Arm(w.Eng, time.Second)
		}
		var rep *fault.Report
		if plan != nil {
			if !quiet {
				fmt.Printf("fault plan %q armed: %d faults\n", plan.Name, len(plan.Faults))
			}
			var err error
			if rep, err = fault.Run(w.FaultTarget(r), plan, horizon); err != nil {
				return err
			}
		} else if err := w.Run(horizon); err != nil {
			return err
		}
		// Final sweep at the horizon: a violation introduced by the events
		// after the last tick would otherwise escape -verify entirely.
		reg.CheckNow(w.Eng.Now())
		reg.Disarm()
		r.Stop()
		summary := reg.Summarize()
		if quiet {
			if *verif && !reg.OK() {
				return fmt.Errorf("%w: %s", errVerification, summary)
			}
			return nil
		}

		met := &r.Metrics
		fmt.Printf("\nmission results (%d simulated minutes, %s command):\n", *minutes, m.Command)
		fmt.Printf("  incidents:        %d\n", met.Incidents.Value())
		fmt.Printf("  detected:         %d (%.0f%%)\n", met.Detected.Value(), 100*met.DetectionRate())
		fmt.Printf("  acted:            %d\n", met.Acted.Value())
		fmt.Printf("  on time:          %d (success %.0f%%)\n", met.OnTime.Value(), 100*met.SuccessRate())
		fmt.Printf("  decision latency: %s\n", met.DecisionLatency.Summarize())
		fmt.Printf("  reflex repairs:   %d\n", met.Repairs.Value())
		fmt.Printf("  undeliverable:    %d\n", met.Undeliverable.Value())
		if m.Degradation {
			fmt.Printf("  degradation: fallbacks=%d restores=%d relaxations=%d\n",
				met.Fallbacks.Value(), met.Restores.Value(), met.Relaxations.Value())
		}
		if c := r.Checkpoints(); c != nil {
			fmt.Printf("  checkpoints: taken=%d skipped=%d restores=%d bytes=%d failovers=%d\n",
				c.Taken.Value(), c.Skipped.Value(), c.Restores.Value(), c.BytesTotal.Value(),
				met.Failovers.Value())
		}
		fmt.Printf("  health: %s (%d transitions)\n", r.Health(), met.HealthChanges.Value())
		fmt.Printf("  network: delivered=%d dropped=%d noroute=%d\n",
			w.Net.Delivered.Value(), w.Net.Dropped.Value(), w.Net.NoRoute.Value())
		if g != nil {
			fmt.Printf("  gossip: published=%d delivery=%.2f repairs=%d frames=%d\n",
				g.Published.Value(), g.DeliveryRatio(), g.Repairs.Value(), g.FramesSent.Value())
			if p := gPics[r.Sink()]; p != nil {
				tracks, trustPairs, cells, _ := p.Counts()
				fmt.Printf("  post picture: tracks=%d trust=%d cells=%d digest=%016x\n",
					tracks, trustPairs, cells, p.Digest())
			}
		}
		fmt.Printf("  fingerprint: %016x\n", met.Fingerprint())
		if rep != nil {
			fmt.Printf("\n%s", rep)
		}
		fmt.Printf("  %s\n", summary)
		if *verif && !reg.OK() {
			return fmt.Errorf("%w: %s", errVerification, summary)
		}
		return nil
	}

	if *replay {
		planStr := ""
		if plan != nil {
			planStr = plan.String()
		}
		var runErr error
		first := true
		run := func(j *checkpoint.Journal) {
			if runErr != nil {
				return
			}
			runErr = execute(j, !first)
			first = false
		}
		div := checkpoint.VerifyEquivalence(*seed, planStr, run, run)
		if runErr != nil {
			return runErr
		}
		if div != nil {
			return fmt.Errorf("%w: replay diverged: %s", errVerification, div.Error())
		}
		fmt.Println("\nreplay verification OK: two runs produced byte-identical decision journals")
		return nil
	}
	return execute(nil, false)
}
