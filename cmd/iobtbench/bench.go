package main

// The harness: set a workload up (several times, so setup_s is a
// median), run timed units for the requested seconds, check every
// output, and assemble the result the manifest declares. Reported times
// are corrected for host drift (calibrate.go).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what a workload may derive its inputs from. The program under
// test receives only the generated scenarios.
type env struct {
	seed  int64
	quick bool
	tmp   string // where service_flood roots its checkpoint stores
}

// outcome is one timed unit's verdict.
type outcome struct {
	// digest must be identical across units of the same seed (and equal
	// the reference the workload's verify step computes).
	digest uint64
	// ops is how many operations the unit attempted (1, or the mission
	// count for service_flood) and failed how many of them went wrong.
	ops, failed int
	problems    []string
	// counts are the exact per-layer counts the unit produced, by
	// per-layer metric name; the traced run reports them.
	counts map[string]float64
	// notes are the simulated statistics printed for the reviewer.
	notes []string
}

// fail marks the whole unit failed.
func (o *outcome) fail(format string, args ...any) outcome {
	o.failed = o.ops
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	return *o
}

// failOne marks one more of the unit's operations failed.
func (o *outcome) failOne(format string, args ...any) {
	o.failed = min(o.failed+1, o.ops)
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// sameDigest reports every unit whose digest differs from the first's.
func sameDigest(units []outcome) []string {
	var problems []string
	for i, u := range units {
		if u.digest != units[0].digest {
			problems = append(problems, fmt.Sprintf("unit %d digest %016x != unit 0 digest %016x", i, u.digest, units[0].digest))
		}
	}
	return problems
}

// traceInfo is what a workload's layers step is given: the last traced
// unit and how long it took.
type traceInfo struct {
	rec  *recorder
	unit int     // recorder unit id of the traced unit
	out  outcome // its outcome
	wall float64 // its wall seconds
}

// instance is one set-up workload.
type instance interface {
	// unit runs one timed operation; rec is nil unless the unit is traced.
	unit(rec *recorder) outcome
	// verify runs after the timed units: cross-unit agreement plus
	// whatever reference run the workload's check needs. Each returned
	// problem is one failed operation.
	verify(rec *recorder, units []outcome) []string
	// layers returns the workload's per-layer metrics for a traced run,
	// running the probes that price its layers from outside.
	layers(t traceInfo) map[string]float64
	close()
}

type workload struct {
	name  string
	why   string
	setup func(env) (instance, error)
}

var workloads = []workload{
	{"engine_storm", "10^4 toy actors straight on sim.Sharded, run at 1 shard then 2: the only workload where an engine change (heap, mailbox, barrier, migration, 1-shard fast path) can show", setupStorm},
	{"gossip_bare", "E18's 10^4-node gossip at 2 shards with no payload: transport-dominated (peer selection, link predicate, relay); bypasses cop, core and service", setupGossipBare},
	{"gossip_cop", "the iobtsim -shards shape, 600 nodes encoding and merging cop.Picture replicas: cop-dominated, so a codec gain shows here and predicts no change on gossip_bare", setupGossipCOP},
	{"mission_classic", "one 1000-asset E14-style mission on sim.Engine, mesh.Network and core.Runtime with every invariant armed: the sequential stack; bypasses sim.Sharded, shardnet and cop", setupClassic},
	{"service_flood", "80 short missions through service.New/SubmitScenario/Drain with 2 workers, 2 clients, a disk checkpoint store and 40% injected crashes: concurrency, back-pressure and recovery", setupFlood},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run produced.
type report struct {
	workload string
	result
	units    int
	notes    []string
	problems []string
	spans    []span
}

const setupRounds = 5

// corruptUnit is a test hook: the index of a timed unit whose digest is
// flipped before verification (-1: none), so the tests can watch a
// wrong output fail the run.
var corruptUnit = -1

// runWorkload sets w up, runs timed units for at least seconds (and at
// least minUnits), verifies them, and reports the end-to-end metrics —
// or, when trace is set, alternates untraced and traced units and
// reports the per-layer metrics instead.
func runWorkload(w workload, e env, seconds float64, trace bool) report {
	rep := report{workload: w.name}
	broken := func(format string, args ...any) report {
		rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
		rep.Attempted, rep.Failed, rep.Correct = max(rep.Attempted, 1), max(rep.Attempted, 1), false
		return rep
	}

	clock := newHostClock()
	var inst instance
	setupSec := make([]float64, setupRounds)
	for i := range setupSec {
		if inst != nil {
			inst.close()
		}
		var err error
		_, setupSec[i] = clock.measure(func() { inst, err = w.setup(e) })
		if err != nil {
			return broken("set-up: %v", err)
		}
	}
	defer inst.close()

	var rec *recorder
	minUnits := 3
	if trace {
		rec = newRecorder()
		minUnits = 2 // one untraced, one traced
	}

	var units []outcome
	var wallSec, rawSec, allocMB, tracedSec []float64
	var last traceInfo
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pauseStart := before.PauseTotalNs
	for start := time.Now(); len(units) < minUnits || time.Since(start).Seconds() < seconds; {
		traced := trace && len(units)%2 == 1
		var unitRec *recorder
		if traced {
			rec.nextUnit()
			unitRec = rec
		}
		var out outcome
		runtime.ReadMemStats(&before)
		raw, wall := clock.measure(func() { out = inst.unit(unitRec) })
		runtime.ReadMemStats(&after)
		if len(units) == corruptUnit {
			out.digest = ^out.digest
		}
		units = append(units, out)
		if traced {
			tracedSec = append(tracedSec, wall)
			last = traceInfo{rec: rec, unit: rec.unit, out: out, wall: raw}
		} else {
			wallSec = append(wallSec, wall)
			rawSec = append(rawSec, raw)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
	}
	gcPauseMS := float64(after.PauseTotalNs-pauseStart) / 1e6

	rep.units = len(units)
	for i, u := range units {
		rep.Attempted += u.ops
		rep.Failed += u.failed
		for _, p := range u.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("unit %d: %s", i, p))
		}
	}
	rep.notes = append(units[len(units)-1].notes,
		fmt.Sprintf("untraced units: wall_s=%.3f as measured=%.3f; set-up rounds: setup_s=%.3f; calibration kernel median %.1f ms (nominal %.0f)",
			wallSec, rawSec, setupSec, median(clock.calSec)*1e3, calNominalSec*1e3))
	verdicts := inst.verify(rec, units)
	rep.problems = append(rep.problems, verdicts...)
	rep.Failed = min(rep.Failed+len(verdicts), rep.Attempted)
	rep.Correct = rep.Failed == 0

	values := map[string]float64{
		"wall_s":   median(wallSec),
		"alloc_mb": median(allocMB),
		"setup_s":  median(setupSec),
	}
	decls := endToEnd
	if trace {
		decls = perLayer
		values = inst.layers(last)
		for layer, sec := range rec.selfSeconds(last.unit) {
			values[layer+".self_s"] = sec
		}
		// The first unit is untraced and still growing the heap; leave it
		// out when a later untraced unit exists.
		warm := wallSec
		if len(warm) > 1 {
			warm = warm[1:]
		}
		values["trace.overhead_frac"] = ratio(median(tracedSec), median(warm)) - 1
		values["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		values["host.cpus"] = float64(runtime.NumCPU())
		values["host.peak_rss_mb"] = peakRSSMB()
		values["host.gc_pause_ms"] = gcPauseMS
		values["host.cal_ms"] = median(clock.calSec) * 1e3
		values["host.wall_raw_s"] = median(rawSec)
		values["bench.units"] = float64(len(units))
		rep.spans = rec.spans
	}

	// Every declared metric is emitted, a layer the workload bypasses
	// reading 0; a value nobody declared is a bug in this program.
	rep.Metrics = make(map[string]metric, len(decls))
	for _, d := range decls {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		delete(values, d.name)
	}
	for name := range values {
		return broken("metric %q is emitted but not declared", name)
	}
	return rep
}

// peakRSSMB reads the process's high-water resident set (VmHWM) from
// /proc; 0 where that does not exist.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}
