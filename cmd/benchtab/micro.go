package main

// The -bench mode: pinned hot-path micro-benchmarks run in-process
// through testing.Benchmark, rendered as a table with events_per_sec
// and allocs_per_op columns, and compared against a committed baseline
// (BENCH_MICRO.json) by the CI bench gate. The loops mirror the
// package benchmarks in internal/sim, internal/track, internal/mesh,
// internal/cop and internal/compose — same bodies, same steady states —
// so `go test -bench` and `benchtab -bench` read the same costs.
//
// The gate's contract is asymmetric on purpose: ns/op may drift with
// the host (the -maxregress fraction absorbs that), but allocs/op on a
// zero-alloc path is a property of the code, not the machine — ANY
// increase fails, with no tolerance.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/compose"
	"iobt/internal/cop"
	"iobt/internal/experiments"
	"iobt/internal/geo"
	"iobt/internal/mesh"
	"iobt/internal/sim"
	"iobt/internal/track"
)

// microBenchActors mirrors benchActors in internal/sim/bench_test.go.
const microBenchActors = 64

// A microBench is one pinned benchmark: a name stable enough to key a
// committed baseline, and a body whose steady state the hotpath
// analyzers hold at zero allocations — or at allocs per op, for a body
// whose result is a fresh buffer.
type microBench struct {
	name   string
	doc    string
	fn     func(b *testing.B)
	allocs int64
}

// microBenches returns the pinned set, in render order. Every entry's
// allocs/op is its allocs field at head; the bench gate keeps it there.
func microBenches() []microBench {
	return []microBench{
		{
			name: "engine_event",
			doc:  "sequential engine: one steady-state Schedule+Step cycle",
			fn: func(b *testing.B) {
				eng := sim.NewEngine(1)
				var tick func()
				tick = func() { eng.Schedule(time.Millisecond, "tick", tick) }
				eng.Schedule(time.Millisecond, "tick", tick)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			},
		},
		{
			name: "engine_event_64",
			doc:  "sequential engine: sharded_local_1's 64 ticks on one millisecond, so the two engines meet at one queue depth (engine_event holds 1 event queued, sharded_local_1 holds 64: their ratio prices the queue depth, not the lane)",
			fn: func(b *testing.B) {
				// Mirrors BenchmarkEngineEvent64 in internal/sim/bench_test.go.
				eng := sim.NewEngine(1)
				var tick func()
				tick = func() { eng.Schedule(time.Millisecond, "tick", tick) }
				for i := 0; i < microBenchActors; i++ {
					eng.Schedule(time.Millisecond, "tick", tick)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			},
		},
		{
			name: "sharded_local_1",
			doc:  "sharded engine, 1 shard: per-event cost of the local schedule path",
			fn:   func(b *testing.B) { microShardedTick(b, 1) },
		},
		{
			name: "sharded_local_1_10k",
			doc:  "sharded engine, 1 shard, engine_storm's queue: 10^4 actors ticking every 50ms from per-actor phases, 10^4 events queued and spread over the tick rather than 64 on one instant",
			fn:   microShardedTick10k,
		},
		{
			name: "sharded_local_4",
			doc:  "sharded engine, 4 shards: local path with barrier overhead amortized",
			fn:   func(b *testing.B) { microShardedTick(b, 4) },
		},
		{
			name: "sharded_send_4",
			doc:  "sharded engine, 4 shards: full cross-shard Send+mailbox+barrier path",
			fn:   func(b *testing.B) { microShardedSend(b, 4) },
		},
		{
			name: "tracker_observe",
			doc:  "per-tick greedy GNN association at a steady 50-track population",
			fn:   microTrackerObserve,
		},
		{
			name: "mesh_refresh_1k",
			doc:  "one neighbour-table Refresh of a 1000-asset mission under a jammer and a partition, mobility stepped (untimed) between refreshes",
			fn:   microMeshRefresh,
		},
		{
			name: "cop_merge",
			doc:  "one MergeEncoded of a 54-track/54-cell frame into a replica that already holds all of it",
			fn: func(b *testing.B) {
				p := microPicture()
				frame := p.Encode()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.MergeEncoded(frame); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			name:   "cop_encode",
			doc:    "one Encode of a 54-track/54-cell replica: a linear dump into the one buffer it returns",
			allocs: 1,
			fn: func(b *testing.B) {
				p := microPicture()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					microFrame = p.Encode()
				}
			},
		},
		{
			name: "shardnet_peers",
			doc:  "one who-hears-me query on the 10^4-node, radio-200 gossip_bare field: candidate table, two bounds, the exact rule for the rest",
			fn: func(b *testing.B) {
				// Mirrors BenchmarkShardPeers in internal/mesh/bench_test.go.
				const nodes = 10000
				peers, err := mesh.ShardLinks(1, mesh.ShardScenario{Nodes: nodes, Radio: 200})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					peers(mesh.NodeID(i%nodes), time.Duration(i)*time.Millisecond)
				}
			},
		},
		{
			name:   "compose_cover_lists",
			doc:    "every candidate's cover list for an E2 pool of 1,000 assets over its derived 32x32 grid: each candidate tested against its sensing box only, all lists in one backing array",
			allocs: 2,
			fn: func(b *testing.B) {
				// Mirrors BenchmarkCoverLists in internal/compose/cover_test.go.
				terr := geo.NewUrbanTerrain(3000, 3000, 100)
				pop := asset.Generate(terr, asset.DefaultMix(1000), sim.NewRNG(42))
				req := compose.Derive(compose.Goal{
					Area:         geo.NewRect(geo.Point{X: 200, Y: 200}, geo.Point{X: 2800, Y: 2800}),
					CoverageFrac: 0.6,
				})
				pool := compose.PoolFromPopulation(pop, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					microCover = req.CoverLists(pool)
				}
			},
		},
		{
			name:   "rng_derive",
			doc:    "opening one named stream and drawing from it once: the per-asset, per-node, per-actor cost (one 64-byte object; math/rand's source was 4.9 KB and ~10 us to seed)",
			allocs: 1,
			fn: func(b *testing.B) {
				root := sim.NewRNG(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					microDraw = root.Derive("shardnet/node/4711").Int63()
				}
			},
		},
		{
			name: "rng_sample_3of13",
			doc:  "the relay's fanout draw: 3 of 13 peers by a three-step partial Fisher-Yates",
			fn: func(b *testing.B) {
				rng := sim.NewRNG(1)
				peers := make([]mesh.NodeID, 13)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rng.Sample(len(peers), 3, func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
				}
			},
		},
	}
}

var (
	microFrame []byte
	microDraw  int64
	microCover [][]int32
)

// microPicture mirrors gossipFrame(54) in internal/cop/codec_test.go: the
// union of 54 publishers' one track and one covered cell, the gossip_cop
// shape (BenchmarkMergeEncodedDominated and BenchmarkEncode in its
// bench_test.go run the same two loops).
func microPicture() *cop.Picture {
	all := cop.NewPicture(0)
	for i := 0; i < 54; i++ {
		p := cop.NewPicture(asset.ID(i))
		p.Cover(cop.Cell{X: 1, Y: int32(i)})
		p.ObserveTrack(1, cop.TrackFix{Pos: geo.Point{X: float64(i), Y: 1}}, time.Duration(i)*time.Second)
		all.Merge(p)
	}
	return all
}

func microShardedTick(b *testing.B, shards int) {
	s := sim.NewSharded(1, sim.ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
	var tick func(c *sim.ShardCtx)
	tick = func(c *sim.ShardCtx) { c.Schedule(time.Millisecond, "tick", tick) }
	for i := 0; i < microBenchActors; i++ {
		s.AddActor(sim.ActorID(i), i%shards)
		s.ScheduleActor(sim.ActorID(i), time.Millisecond, "tick", tick)
	}
	horizon := time.Duration((b.N+microBenchActors-1)/microBenchActors) * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
}

// microShardedTick10k mirrors BenchmarkShardedLocal1_10k in
// internal/sim/bench_test.go.
func microShardedTick10k(b *testing.B) {
	const actors, period = 10000, 50 * time.Millisecond
	s := sim.NewSharded(1, sim.ShardedConfig{Shards: 1, Lookahead: 100 * time.Millisecond})
	var tick func(c *sim.ShardCtx)
	tick = func(c *sim.ShardCtx) { c.Schedule(period, "tick", tick) }
	phases := sim.NewRNG(1)
	for i := 0; i < actors; i++ {
		s.AddActor(sim.ActorID(i), 0)
		s.ScheduleActor(sim.ActorID(i), time.Duration(phases.Intn(int(period/time.Microsecond)))*time.Microsecond, "tick", tick)
	}
	horizon := time.Duration((b.N+actors-1)/actors) * period
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
}

func microShardedSend(b *testing.B, shards int) {
	s := sim.NewSharded(1, sim.ShardedConfig{Shards: shards, Lookahead: time.Millisecond})
	var relay func(c *sim.ShardCtx)
	relay = func(c *sim.ShardCtx) {
		c.Send((c.Self()+1)%microBenchActors, time.Millisecond, "msg", relay)
	}
	for i := 0; i < microBenchActors; i++ {
		s.AddActor(sim.ActorID(i), i%shards)
	}
	for i := 0; i < microBenchActors; i++ {
		s.ScheduleActor(sim.ActorID(i), time.Millisecond, "seed", relay)
	}
	horizon := time.Duration((b.N+microBenchActors-1)/microBenchActors) * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(horizon); err != nil {
		b.Fatal(err)
	}
}

func microTrackerObserve(b *testing.B) {
	const targets = 50
	tr := track.NewTracker(track.Config{})
	dets := make([]track.Detection, targets)
	pos := func(i int, t float64) (x, y float64) {
		return float64(i%10)*200 + 10*math.Sin(t+float64(i)),
			float64(i/10)*200 + 10*math.Cos(t+float64(i))
	}
	now := time.Duration(0)
	fill := func() {
		for i := range dets {
			x, y := pos(i, now.Seconds())
			dets[i] = track.Detection{Pos: geo.Point{X: x, Y: y}, Var: 25, Sensor: int32(i % 4)}
		}
	}
	// Warm to the steady population so spawn-path allocations (waived
	// per-new-target, not per-tick) stay out of the timed loop.
	for tick := 0; tick < 5; tick++ {
		now += time.Second
		fill()
		tr.Observe(now, dets)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Second
		fill()
		tr.Observe(now, dets)
	}
}

// microMeshRefresh mirrors BenchmarkNetworkRefresh in
// internal/mesh/bench_test.go (world: refreshWorld in refresh_test.go).
func microMeshRefresh(b *testing.B) {
	eng := sim.NewEngine(1)
	terr := geo.NewOpenTerrain(1500, 1500)
	pop := asset.Generate(terr, asset.DefaultMix(1000), eng.Stream("gen"))
	cfg := mesh.DefaultConfig()
	cfg.StepMobility = false // stepped by hand below
	net := mesh.New(eng, pop, terr, cfg)
	jam := geo.Circle{Center: geo.Point{X: 500, Y: 500}, Radius: 300}
	net.SetJamming(func(p geo.Point) float64 {
		if jam.Contains(p) {
			return 0.6
		}
		return 0
	})
	cut := func(a, b geo.Point) bool { return (a.X < 750) != (b.X < 750) }
	net.SetLinkFault(func() func(a, b geo.Point) bool { return cut })
	// Warm the neighbour table and grid cells to their steady capacity.
	for i := 0; i < 50; i++ {
		pop.StepMobility(time.Second)
		net.Refresh()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mobility moves the world between refreshes but is not the
		// measured path: grid cells still grow now and then as nodes
		// reach new cells, and that must not read as Refresh allocating.
		b.StopTimer()
		pop.StepMobility(time.Second)
		b.StartTimer()
		net.Refresh()
	}
}

// A MicroResult is one benchmark's measured steady state. events_per_sec
// is the reciprocal throughput reading of ns_per_op — the number the
// paper-facing tables quote — and allocs_per_op is the number the gate
// refuses to let grow.
type MicroResult struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// A MicroTable is the -bench output: results in pinned order plus the
// host envelope the numbers were measured under.
type MicroTable struct {
	Benchmarks []MicroResult     `json:"benchmarks"`
	Host       *experiments.Host `json:"host,omitempty"`
}

// runMicroBenches executes every pinned benchmark through
// testing.Benchmark (each self-tunes to roughly one second of work).
func runMicroBenches(host *experiments.Host) *MicroTable {
	t := &MicroTable{Host: host}
	for _, mb := range microBenches() {
		r := testing.Benchmark(mb.fn)
		ns := float64(r.NsPerOp())
		if r.N > 0 && r.T > 0 {
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		eps := 0.0
		if ns > 0 {
			eps = 1e9 / ns
		}
		t.Benchmarks = append(t.Benchmarks, MicroResult{
			Name:         mb.name,
			NsPerOp:      ns,
			EventsPerSec: eps,
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
		})
	}
	return t
}

// String renders the text table.
func (t *MicroTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %12s %16s %12s %12s\n",
		"benchmark", "ns/op", "events_per_sec", "allocs/op", "bytes/op")
	for _, r := range t.Benchmarks {
		fmt.Fprintf(&sb, "%-20s %12.1f %16.0f %12d %12d\n",
			r.Name, r.NsPerOp, r.EventsPerSec, r.AllocsPerOp, r.BytesPerOp)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the machine-readable form committed as BENCH_MICRO.json.
func (t *MicroTable) JSON() string {
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error": %q}`, err)
	}
	return string(raw)
}

// loadMicroBaseline reads a committed MicroTable.
func loadMicroBaseline(path string) (*MicroTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var t MicroTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &t, nil
}

// compareMicro gates cur against base: every baseline benchmark must
// be present, may not exceed its baseline ns/op by more than
// maxRegress (a fraction, e.g. 0.15), and may not allocate more per op
// at all. All violations are reported together so one CI run shows the
// whole regression, not its first line.
func compareMicro(cur, base *MicroTable, maxRegress float64) error {
	curBy := map[string]MicroResult{}
	for _, r := range cur.Benchmarks {
		curBy[r.Name] = r
	}
	var violations []string
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: in baseline but not produced by this run (renamed or dropped a pinned benchmark?)", b.Name))
			continue
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %d > baseline %d — a zero-alloc path regressed; run the allocation-rate pins (go test -run AllocRate ./internal/...) to find the entry point",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+maxRegress) {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op %.1f > baseline %.1f by more than %.0f%%",
				b.Name, c.NsPerOp, b.NsPerOp, 100*maxRegress))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench gate: %d regression(s) vs baseline:\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}
