package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-experiment", "E99"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSingleQuick(t *testing.T) {
	if err := run([]string{"-experiment", "E9", "-quick"}); err != nil {
		t.Fatalf("E9 quick: %v", err)
	}
	if err := run([]string{"-experiment", "e9", "-quick", "-format", "csv"}); err != nil {
		t.Fatalf("csv: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// microResult builds a one-benchmark table for gate-logic tests.
func microTable(name string, ns float64, allocs int64) *MicroTable {
	return &MicroTable{Benchmarks: []MicroResult{
		{Name: name, NsPerOp: ns, EventsPerSec: 1e9 / ns, AllocsPerOp: allocs},
	}}
}

func TestCompareCleanWithinTolerance(t *testing.T) {
	base := microTable("engine_event", 100, 0)
	for _, ns := range []float64{80, 100, 114.9} {
		if err := compareMicro(microTable("engine_event", ns, 0), base, 0.15); err != nil {
			t.Errorf("ns/op %v within 15%% of 100 flagged: %v", ns, err)
		}
	}
}

func TestCompareFiresOnNsRegression(t *testing.T) {
	base := microTable("engine_event", 100, 0)
	err := compareMicro(microTable("engine_event", 116, 0), base, 0.15)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("16%% ns/op regression not flagged: %v", err)
	}
}

func TestCompareFiresOnAnyAllocIncrease(t *testing.T) {
	// allocs/op tolerates nothing: 0 → 1 fails even with ns/op improved.
	base := microTable("sharded_send_4", 100, 0)
	err := compareMicro(microTable("sharded_send_4", 50, 1), base, 0.15)
	if err == nil || !strings.Contains(err.Error(), "allocs/op 1 > baseline 0") {
		t.Fatalf("allocs/op increase not flagged: %v", err)
	}
}

func TestCompareFiresOnDroppedBenchmark(t *testing.T) {
	base := microTable("engine_event", 100, 0)
	err := compareMicro(&MicroTable{}, base, 0.15)
	if err == nil || !strings.Contains(err.Error(), "not produced") {
		t.Fatalf("dropped pinned benchmark not flagged: %v", err)
	}
}

// TestRegressedFixtureFires pins the committed red-path fixture: the
// CI bench gate must exit nonzero when the current run is slower than
// the baseline claims, and testdata/regressed.json claims the
// impossible (0.001 ns/op), so any real measurement regresses.
func TestRegressedFixtureFires(t *testing.T) {
	base, err := loadMicroBaseline(filepath.Join("testdata", "regressed.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur := microTable("engine_event", 25, 0)
	cur.Benchmarks = append(cur.Benchmarks, MicroResult{Name: "tracker_observe", NsPerOp: 20000})
	err = compareMicro(cur, base, 0.15)
	if err == nil || !strings.Contains(err.Error(), "2 regression(s)") {
		t.Fatalf("regressed fixture did not fire on both benchmarks: %v", err)
	}
}

// TestBaselineMatchesPinnedSet keeps BENCH_MICRO.json honest: the
// committed baseline must name exactly the benchmarks -bench runs, so
// the gate can never silently skip a renamed or new pinned loop.
func TestBaselineMatchesPinnedSet(t *testing.T) {
	base, err := loadMicroBaseline(filepath.Join("..", "..", "BENCH_MICRO.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, mb := range microBenches() {
		want[mb.name] = mb.allocs
	}
	got := map[string]bool{}
	for _, r := range base.Benchmarks {
		got[r.Name] = true
		allocs, ok := want[r.Name]
		if !ok {
			t.Errorf("baseline has %q but -bench does not run it", r.Name)
		}
		if r.AllocsPerOp != allocs {
			t.Errorf("baseline %s allocs/op = %d, pinned at %d; the pinned set is the zero-alloc contract", r.Name, r.AllocsPerOp, allocs)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("-bench runs %q but the baseline does not pin it; refresh BENCH_MICRO.json", name)
		}
	}
}
