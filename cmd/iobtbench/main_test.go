package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestManifestMatchesBenchmarkJSON is the drift guard: the workloads and
// metric declarations compiled into the benchmark are exactly the ones
// BENCHMARK.json promises, name for name, unit for unit, bound for bound.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b := loadManifest(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", b.RunSeconds, runSeconds)
	}
	if got := strings.Join(b.Command, " "); got != "go run ./cmd/iobtbench" {
		t.Errorf("command %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/iobtbench" {
		t.Errorf("paths %v", b.Paths)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d compiled in", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if j := b.Workloads[i]; j.Name != w.name || j.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, j.Name, j.Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d compiled in", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if j := b.EndToEnd[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d compiled in", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if j := b.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
	}
}

// runQuick drives the whole program in -quick mode and returns its exit
// code, its JSON result lines in workload order, and all it printed.
func runQuick(t *testing.T, args ...string) (int, []result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-quick", "-tmp", t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	var results []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		results = append(results, r)
	}
	return code, results, stdout.String()
}

// assertEmits checks that every workload's result carries exactly the
// declared names, each with its unit, and that the text form printed
// each name once per workload.
func assertEmits(t *testing.T, results []result, text string, decls []decl) {
	t.Helper()
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(workloads))
	}
	for i, r := range results {
		w := workloads[i].name
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(decls) {
			t.Errorf("%s: %d metrics emitted, %d declared", w, len(r.Metrics), len(decls))
		}
		for _, d := range decls {
			m, ok := r.Metrics[d.name]
			if !ok {
				t.Errorf("%s: declared metric %s was not emitted", w, d.name)
				continue
			}
			if m.Unit != d.unit {
				t.Errorf("%s: %s has unit %q, declared %q", w, d.name, m.Unit, d.unit)
			}
			line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w) + ` +` + regexp.QuoteMeta(d.name) + ` `)
			if n := len(line.FindAllString(text, -1)); n != 1 {
				t.Errorf("%s: %s printed %d times", w, d.name, n)
			}
		}
	}
}

func TestQuickEndToEnd(t *testing.T) {
	code, results, text := runQuick(t)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, text)
	}
	assertEmits(t, results, text, endToEnd)
	for i, r := range results {
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", workloads[i].name, name, m.Value)
			}
		}
	}
}

func TestQuickTraced(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	code, results, text := runQuick(t, "-trace", "1", "-spans", spans)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, text)
	}
	assertEmits(t, results, text, perLayer)

	// Each workload's own layer did measurable work, and the layer its
	// control bypasses did none.
	value := func(workload int, name string) float64 { return results[workload].Metrics[name].Value }
	for _, c := range []struct {
		workload int
		name     string
		positive bool
	}{
		{0, "sim.sharded1.ns_per_event", true}, {0, "sim.self_s", true}, {0, "cop.merge_calls", false},
		{1, "mesh.self_s", true}, {1, "mesh.shardnet.relays", true}, {1, "cop.merge_calls", false},
		{2, "cop.merge_calls", true}, {2, "cop.self_s", true}, {2, "cop.share_1shard", true},
		{3, "core.run_s", true}, {3, "verify.self_s", true}, {3, "mesh.network.refresh_ms", true}, {3, "mesh.shardnet.relays", false},
		{4, "service.first_event_p95_ms", true}, {4, "service.recoveries", true}, {4, "checkpoint.store.sync_us", true}, {4, "sim.sharded1.ns_per_event", false},
	} {
		if got := value(c.workload, c.name); (got > 0) != c.positive {
			t.Errorf("%s: %s = %v, want positive=%v", workloads[c.workload].name, c.name, got, c.positive)
		}
	}

	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var byWorkload map[string][]span
	if err := json.Unmarshal(raw, &byWorkload); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		ss := byWorkload[w.name]
		if len(ss) == 0 {
			t.Errorf("%s: no spans written", w.name)
		}
		for _, s := range ss {
			if s.End < s.Start || s.Parent >= s.ID || s.Unit < 1 {
				t.Errorf("%s: malformed span %+v", w.name, s)
				break
			}
		}
	}
}

// TestBrokenUnitFails injects a wrong digest into one unit of each kind
// of check and expects failed > 0 and a non-zero exit.
func TestBrokenUnitFails(t *testing.T) {
	corruptUnit = 1
	defer func() { corruptUnit = -1 }()
	for _, w := range []string{"engine_storm", "gossip_cop", "mission_classic", "service_flood"} {
		code, results, text := runQuick(t, "-workload", w)
		if code == 0 {
			t.Errorf("%s: exit 0 with a corrupted unit\n%s", w, text)
		}
		if len(results) != 1 || results[0].Correct || results[0].Failed == 0 {
			t.Errorf("%s: a corrupted unit was not counted as failed: %+v", w, results)
		}
		if !strings.Contains(text, "failed_frac") || strings.Contains(text, "failed_frac                                0.000000") {
			t.Errorf("%s: failed_frac not above 0\n%s", w, text)
		}
	}
}

func TestRepeatPrintsSpread(t *testing.T) {
	// The verdict itself is not asserted: a 20x-shrunk unit on a shared
	// CI host may legitimately spread past a bound meant for full units.
	_, results, text := runQuick(t, "-workload", "gossip_bare", "-repeat", "3")
	if len(results) != 3 {
		t.Fatalf("%d result lines for 3 sets", len(results))
	}
	for _, d := range endToEnd {
		if !regexp.MustCompile(`(?m)^gossip_bare +` + d.name + ` +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+`).MatchString(text) {
			t.Errorf("no spread row for %s\n%s", d.name, text)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-no-such-flag"}, {"stray"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([3, 5], n=4)
	if q1, q2, q3 = quartiles([]float64{3, 5}); q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles = %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	r := &recorder{unit: 1}
	r.spans = []span{
		{ID: 0, Name: "mesh.run", Parent: -1, Unit: 1, Start: 0, End: 100},
		{ID: 1, Name: "cop.merge", Parent: 0, Unit: 1, Start: 10, End: 50},
		{ID: 2, Name: "cop.merge", Parent: 0, Unit: 1, Start: 30, End: 70}, // overlaps the first, as on a second shard
		{ID: 3, Name: "cop.merge", Parent: 0, Unit: 2, Start: 0, End: 100}, // another unit
	}
	self := r.selfSeconds(1)
	if got := self["mesh"] * 1e9; got != 40 {
		t.Errorf("mesh self = %v ns, want 40", got)
	}
	if got := self["cop"] * 1e9; got != 80 {
		t.Errorf("cop self = %v ns, want 80", got)
	}
}
