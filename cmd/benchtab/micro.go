package main

// The -bench mode: the pinned hot-path micro-benchmarks, rendered as a
// table with events_per_sec and allocs_per_op columns and compared
// against a committed baseline (BENCH_MICRO.json) by the CI bench gate.
// Each row names a Benchmark function in internal/sim, internal/track,
// internal/mesh, internal/cop or internal/compose, the row's only copy;
// runMicroBenches runs them with `go test -bench` and reads back the
// lines it prints, so `go test -bench` and `benchtab -bench` measure
// the same loop.
//
// The gate's contract is asymmetric on purpose: ns/op may drift with
// the host (the -maxregress fraction absorbs that), but allocs/op on a
// zero-alloc path is a property of the code, not the machine — ANY
// increase fails, with no tolerance.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"iobt/internal/experiments"
)

// A microBench is one pinned benchmark: a name stable enough to key a
// committed baseline, the package and Benchmark function that measure
// it, and its allocs per op at head (zero on an allocation-free path;
// a body whose result is a fresh buffer counts it).
type microBench struct {
	name   string
	doc    string
	pkg    string
	fn     string
	allocs int64
}

const (
	simPkg     = "iobt/internal/sim"
	trackPkg   = "iobt/internal/track"
	meshPkg    = "iobt/internal/mesh"
	copPkg     = "iobt/internal/cop"
	composePkg = "iobt/internal/compose"
)

// microBenches returns the pinned set, in render order. Every entry's
// allocs/op is its allocs field at head; the bench gate keeps it there.
func microBenches() []microBench {
	return []microBench{
		{name: "engine_event", pkg: simPkg, fn: "BenchmarkEngineEvent",
			doc: "sequential engine: one steady-state Schedule+Step cycle"},
		{name: "engine_event_64", pkg: simPkg, fn: "BenchmarkEngineEvent64",
			doc: "sequential engine: sharded_local_1's 64 ticks on one millisecond, so the two engines meet at one queue depth (engine_event holds 1 event queued, sharded_local_1 holds 64: their ratio prices the queue depth, not the lane)"},
		{name: "sharded_local_1", pkg: simPkg, fn: "BenchmarkShardedLocal1",
			doc: "sharded engine, 1 shard: per-event cost of the local schedule path"},
		{name: "sharded_local_1_10k", pkg: simPkg, fn: "BenchmarkShardedLocal1_10k",
			doc: "sharded engine, 1 shard, engine_storm's queue: 10^4 actors ticking every 50ms from per-actor phases, 10^4 events queued and spread over the tick rather than 64 on one instant"},
		{name: "sharded_local_4", pkg: simPkg, fn: "BenchmarkShardedLocal4",
			doc: "sharded engine, 4 shards: local path with barrier overhead amortized"},
		{name: "sharded_send_4", pkg: simPkg, fn: "BenchmarkShardedSend4",
			doc: "sharded engine, 4 shards: full cross-shard Send+mailbox+barrier path"},
		{name: "tracker_observe", pkg: trackPkg, fn: "BenchmarkTrackerObserve",
			doc: "per-tick greedy GNN association at a steady 50-track population"},
		{name: "mesh_refresh_1k", pkg: meshPkg, fn: "BenchmarkNetworkRefresh",
			doc: "one neighbour-table Refresh of a 1000-asset mission under a jammer and a partition, mobility stepped (untimed) between refreshes"},
		{name: "cop_merge", pkg: copPkg, fn: "BenchmarkMergeEncodedDominated",
			doc: "one MergeEncoded of a 54-track/54-cell frame into a replica that already holds all of it"},
		{name: "cop_merge_one_new", pkg: copPkg, fn: "BenchmarkMergeEncodedOneNew",
			doc: "one MergeEncoded of a 24-track/24-cell frame into a replica lacking exactly one of its tracks and one of its cells: the gossip_cop receive that adds something"},
		{name: "cop_encode", pkg: copPkg, fn: "BenchmarkEncode", allocs: 1,
			doc: "one Encode of a 54-track/54-cell replica: a linear dump into the one buffer it returns"},
		{name: "shardnet_peers", pkg: meshPkg, fn: "BenchmarkShardPeers",
			doc: "one who-hears-me query on the 10^4-node, radio-200 gossip_bare field: candidate table, two bounds, the exact rule for the rest"},
		{name: "compose_cover_lists", pkg: composePkg, fn: "BenchmarkCoverLists", allocs: 2,
			doc: "every candidate's cover list for an E2 pool of 1,000 assets over its derived 32x32 grid: each candidate tested against its sensing box only, all lists in one backing array"},
		{name: "rng_derive", pkg: simPkg, fn: "BenchmarkRNGDerive", allocs: 1,
			doc: "opening one named stream and drawing from it once: the per-asset, per-node, per-actor cost (one 64-byte object; math/rand's source was 4.9 KB and ~10 us to seed)"},
		{name: "rng_sample_3of13", pkg: simPkg, fn: "BenchmarkRNGSample3of13",
			doc: "the relay's fanout draw: 3 of 13 peers by a three-step partial Fisher-Yates"},
	}
}

// microPackages lists the packages rows name, in first-row order.
func microPackages(rows []microBench) []string {
	var pkgs []string
	for _, mb := range rows {
		if !slices.Contains(pkgs, mb.pkg) {
			pkgs = append(pkgs, mb.pkg)
		}
	}
	return pkgs
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

// runMicroBenches runs every pinned benchmark once, serially, through
// `go test -bench` over the packages that hold them (each self-tunes to
// roughly one second of work), and reads their results back.
func runMicroBenches(host *experiments.Host) (*MicroTable, error) {
	rows := microBenches()
	names := make([]string, len(rows))
	for i, mb := range rows {
		names[i] = mb.fn
	}
	args := []string{"test", "-p", "1", "-count", "1", "-run", "^$",
		"-bench", "^(" + strings.Join(names, "|") + ")$", "-benchmem"}
	out, err := exec.Command("go", append(args, microPackages(rows)...)...).CombinedOutput()
	t, perr := parseMicro(rows, out)
	if perr == nil && err != nil {
		perr = fmt.Errorf("go test: %v\n%s", err, out)
	}
	if perr != nil {
		return nil, perr
	}
	t.Host = host
	return t, nil
}

var (
	benchLineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)
	benchFailRe = regexp.MustCompile(`^--- FAIL: (Benchmark\S+?)(?:-\d+)?$`)
)

// parseMicro reads `go test -bench -benchmem` output into a table in
// row order. A row whose benchmark failed, or that printed no result
// line, is an error that names it and carries the whole output: the
// gate must never read a benchmark that did not run as one that cost
// nothing.
func parseMicro(rows []microBench, out []byte) (*MicroTable, error) {
	type key struct{ pkg, fn string }
	results := map[key]MicroResult{}
	failed := map[key]bool{}
	var pkg string
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		if m := benchFailRe.FindStringSubmatch(line); m != nil {
			failed[key{pkg, m[1]}] = true
			continue
		}
		m := benchLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var r MicroResult
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench output %q: %v", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results[key{pkg, m[1]}] = r
	}
	t := &MicroTable{}
	var bad []string
	for _, mb := range rows {
		k := key{mb.pkg, mb.fn}
		r, ok := results[k]
		switch {
		case failed[k]:
			bad = append(bad, fmt.Sprintf("%s (%s.%s) failed", mb.name, mb.pkg, mb.fn))
			continue
		case !ok:
			bad = append(bad, fmt.Sprintf("%s (%s.%s) printed no result line", mb.name, mb.pkg, mb.fn))
			continue
		}
		r.Name = mb.name
		if r.NsPerOp > 0 {
			r.EventsPerSec = 1e9 / r.NsPerOp
		}
		t.Benchmarks = append(t.Benchmarks, r)
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("bench: %s; go test output:\n%s", strings.Join(bad, "; "), out)
	}
	return t, nil
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
		if c.NsPerOp <= 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op %.1f — the row was not measured", b.Name, c.NsPerOp))
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
