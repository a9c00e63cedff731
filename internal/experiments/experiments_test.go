package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"iobt/internal/compose"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("registry has %d experiments, want 18", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Name == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("e7"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("lookup of unknown id succeeded")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "EX", Title: "x", Header: []string{"a", "bb"}, Notes: "n"}
	tb.AddRow("1", "2")
	s := tb.String()
	if !strings.Contains(s, "EX") || !strings.Contains(s, "bb") || !strings.Contains(s, "shape:") {
		t.Errorf("table render missing pieces:\n%s", s)
	}
}

// TestTableJSONHost pins the host metadata block: committed BENCH
// documents must state the parallelism envelope that produced their
// scaling columns, and omit the block entirely when it is unset (old
// documents stay valid).
func TestTableJSONHost(t *testing.T) {
	tb := &Table{ID: "EX", Title: "x", Header: []string{"a"}}
	tb.AddRow("1")
	if s := tb.JSON(); strings.Contains(s, `"host"`) {
		t.Errorf("host block present without Host set:\n%s", s)
	}
	tb.Host = &Host{GOMAXPROCS: 3, CPUs: 8}
	s := tb.JSON()
	if !strings.Contains(s, `"gomaxprocs": 3`) || !strings.Contains(s, `"cpus": 8`) {
		t.Errorf("host block missing fields:\n%s", s)
	}
	if strings.Index(s, `"host"`) > strings.Index(s, `"header"`) {
		t.Errorf("host block must precede the data columns:\n%s", s)
	}
}

// The shape tests below run each experiment in quick mode and assert the
// DESIGN.md §5 expected shape on the produced numbers — the reproduction
// criteria themselves.

func TestE1Shape(t *testing.T) {
	tb := E1DecisionLoop(11, true)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	intentP50 := parseF(t, tb.Rows[0][2])
	hier3P50 := parseF(t, tb.Rows[3][2])
	hier4P50 := parseF(t, tb.Rows[4][2])
	if hier3P50 < 2*intentP50 {
		t.Errorf("3-level hierarchy p50 %.2f not >= 2x intent %.2f", hier3P50, intentP50)
	}
	if hier4P50 <= hier3P50 {
		t.Errorf("latency not growing with depth: %.2f -> %.2f", hier3P50, hier4P50)
	}
}

// TestE2Shape checks the table once and the greedy solver's feasibility
// over a seed sweep. What a 24-seed sweep of the quick scales measured:
//
//   - 300 assets: infeasible at 24 of 24 seeds before this sweep
//     existed, under math/rand's generator as under this one, and
//     rightly: the pool of 270 falls into about 135 radio components,
//     the largest holds 30-60 assets and typically senses 0.15-0.4 of
//     the area, so no connected composite reaches 0.6 and the error says
//     "composite not connected". (At seed 14 one component just senses
//     0.61; GreedySolver finds it now, so it is 23 of 24.)
//   - 1000 assets: the largest component holds 700+ assets and senses
//     0.98 or more, so a feasible composite always exists. Max-coverage
//     used to start from a sensor outside that component about once in
//     24 seeds and then report 0.98 coverage as infeasible; since
//     GreedySolver looks inside the components it is 24 of 24. The
//     assertion leaves room for a world that really is hard.
func TestE2Shape(t *testing.T) {
	tb := E2Composition(12, true)
	// Repair must not be slower than full re-solve by more than 2x (it
	// is usually much faster).
	var greedyRows int
	var repairMS, fullMS float64
	for _, row := range tb.Rows {
		switch row[1] {
		case "greedy":
			greedyRows++
		case "repair-20%":
			repairMS = parseF(t, row[2])
		case "full-resolve":
			fullMS = parseF(t, row[2])
		}
	}
	if greedyRows != 2 {
		t.Errorf("%d greedy rows, want one per scale", greedyRows)
	}
	if repairMS > 2*fullMS+5 {
		t.Errorf("repair (%.0fms) slower than full re-solve (%.0fms)", repairMS, fullMS)
	}

	const seeds = 24
	sparse, feasible := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		req, pool := e2Instance(seed, 300)
		if _, err := (compose.GreedySolver{}).Solve(req, pool); err != nil {
			sparse++
			if !strings.HasSuffix(err.Error(), ": composite not connected") {
				t.Errorf("seed %d, 300 assets: %v, want connectivity as the one unmet requirement", seed, err)
			}
		}
		req, pool = e2Instance(seed, 1000)
		if _, err := (compose.GreedySolver{}).Solve(req, pool); err == nil {
			feasible++
		} else {
			t.Logf("seed %d, 1000 assets: %v", seed, err)
		}
	}
	if 2*sparse < seeds {
		t.Errorf("300-asset greedy infeasible at %d of %d seeds; it is the table's hard instance", sparse, seeds)
	}
	if 10*feasible < 9*seeds {
		t.Errorf("1000-asset greedy feasible at %d of %d seeds, want >= 90%%", feasible, seeds)
	}
}

func TestE3Shape(t *testing.T) {
	tb := E3Discovery(13, true)
	// At duty 0.1, full-stack recall must beat probe-only.
	var probeLow, fullLow float64
	var fullRedRecall float64
	for _, row := range tb.Rows {
		if row[0] == "0.10" && row[1] == "probe" {
			probeLow = parseF(t, row[2])
		}
		if row[0] == "0.10" && row[1] != "probe" {
			fullLow = parseF(t, row[2])
		}
		if row[0] == "1.00" && row[1] != "probe" {
			fullRedRecall = parseF(t, row[4])
		}
	}
	if fullLow <= probeLow {
		t.Errorf("full-stack recall %.2f not above probe-only %.2f at duty 0.1", fullLow, probeLow)
	}
	if fullRedRecall < 0.5 {
		t.Errorf("red recall %.2f < 0.5 with side channel", fullRedRecall)
	}
}

func TestE4Shape(t *testing.T) {
	tb := E4Adaptation(14, true)
	var unco, coord float64
	var treeRows int
	for _, row := range tb.Rows {
		if row[0] == "controllers" && strings.Contains(row[1], "uncoordinated") {
			unco = parseF(t, row[3])
		}
		if row[0] == "controllers" && row[1] == "shared plant, coordinated" {
			coord = parseF(t, row[3])
		}
		if row[0] == "spanning tree" {
			treeRows++
			if parseF(t, row[3]) > 500 {
				t.Errorf("tree stabilization %s rounds too high", row[3])
			}
		}
	}
	if treeRows != 3 {
		t.Errorf("tree rows = %d", treeRows)
	}
	if coord >= unco {
		t.Errorf("coordination tail error %.2f not below uncoordinated %.2f", coord, unco)
	}
}

func TestE5Shape(t *testing.T) {
	tb := E5Game(15, true)
	for _, row := range tb.Rows {
		if row[1] == "best-response" {
			if row[5] != "yes" {
				t.Errorf("best response did not converge at n=%s", row[0])
			}
			if w := parseF(t, row[4]); w < 0.5 {
				t.Errorf("welfare ratio %.3f below PoA bound at n=%s", w, row[0])
			}
		}
		if row[1] == "random-assign" {
			if w := parseF(t, row[4]); w > 0.95 {
				t.Errorf("random assignment suspiciously good: %.3f", w)
			}
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := E6Learning(16, true)
	var fedavg30, median30 float64
	for _, row := range tb.Rows {
		if row[0] == "0.30" {
			switch row[1] {
			case "fedavg":
				fedavg30 = parseF(t, row[2])
			case "median":
				median30 = parseF(t, row[2])
			}
		}
	}
	if median30 < fedavg30+0.1 {
		t.Errorf("median %.3f should clearly beat fedavg %.3f at 30%% byzantine", median30, fedavg30)
	}
}

func TestE7Shape(t *testing.T) {
	tb := E7Truth(17, true)
	for _, row := range tb.Rows {
		maj := parseF(t, row[1])
		em := parseF(t, row[2])
		coll := parseF(t, row[0])
		if coll <= 0.2 && em < maj {
			t.Errorf("EM %.3f below majority %.3f at collusion %.2f", em, maj, coll)
		}
		// Graceful degradation holds while honest sources carry the
		// expected majority of correct votes (up to ~30% here); at 40%
		// the label symmetry can break, which the table documents.
		if coll <= 0.3 && em < 0.6 {
			t.Errorf("EM %.3f collapsed at collusion %.2f", em, coll)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tb := E8Tomography(18, true)
	prevRank := -1.0
	for _, row := range tb.Rows {
		rank := parseF(t, row[3])
		if rank < prevRank {
			t.Errorf("rank decreased with more monitors: %v -> %v", prevRank, rank)
		}
		prevRank = rank
		// Precision is the hard guarantee; recall may be < 1 when the
		// failed link shares a stem with others.
		if prec := parseF(t, row[5]); prec != 0 && prec < 0.5 {
			t.Errorf("localization precision %.2f too low", prec)
		}
	}
	first := parseF(t, tb.Rows[0][3])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][3])
	if last <= first {
		t.Error("rank never grew with monitor count")
	}
}

func TestE9Shape(t *testing.T) {
	tb := E9Saturation(19, true)
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	fifoDrop := parseF(t, first[1]) - parseF(t, last[1])
	isoDrop := parseF(t, first[3]) - parseF(t, last[3])
	if fifoDrop < 100 {
		t.Errorf("FIFO goodput did not collapse: drop %.0f", fifoDrop)
	}
	if isoDrop > 10 {
		t.Errorf("isolated goodput dropped %.0f; want flat", isoDrop)
	}
}

func TestE10Shape(t *testing.T) {
	tb := E10CostOfLearning(20, true)
	var ringAcc, fullAcc float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "ring":
			ringAcc = parseF(t, row[3])
		case "full":
			fullAcc = parseF(t, row[3])
		}
	}
	if ringAcc < fullAcc-0.05 {
		t.Errorf("budgeted ring %.3f much worse than full %.3f", ringAcc, fullAcc)
	}
}

func TestE11Shape(t *testing.T) {
	tb := E11Continual(21, true)
	// Context 0 row: contextual retention must beat single model.
	row := tb.Rows[0]
	single := parseF(t, row[1])
	ctx := parseF(t, row[2])
	if ctx < single+0.05 {
		t.Errorf("contextual %.3f not above single %.3f on forgotten context", ctx, single)
	}
	if ctx < 0.8 {
		t.Errorf("contextual retention %.3f too low", ctx)
	}
}

func TestE12Shape(t *testing.T) {
	tb := E12Diversity(22, true)
	var homoRetained, divRetained float64
	for _, row := range tb.Rows {
		switch row[0] {
		case "homogeneous-visual":
			homoRetained = parseF(t, row[3])
		case "diverse-3-modality":
			divRetained = parseF(t, row[3])
		}
	}
	if homoRetained > 0.1 {
		t.Errorf("homogeneous team retained %.2f after smoke; want collapse", homoRetained)
	}
	if divRetained < 0.3 {
		t.Errorf("diverse team retained only %.2f", divRetained)
	}
}

func TestE13Shape(t *testing.T) {
	tb := E13Tracking(23, true)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	sparse := parseF(t, tb.Rows[0][2])
	dense := parseF(t, tb.Rows[2][2])
	if dense <= sparse {
		t.Errorf("continuity sparse=%.2f dense=%.2f; want density to help", sparse, dense)
	}
	// Warm tracks survive sensor churn far better than a cold start at
	// the surviving density; the damage shows up as error and drops.
	churned := parseF(t, tb.Rows[3][2])
	if churned <= sparse {
		t.Errorf("warm-track churn continuity %.2f not above cold-start sparse %.2f", churned, sparse)
	}
	churnErr := parseF(t, tb.Rows[3][3])
	denseErr := parseF(t, tb.Rows[2][3])
	if churnErr <= denseErr {
		t.Errorf("churn error %.2f not above full-density error %.2f", churnErr, denseErr)
	}
}

func TestRegistryHasE13(t *testing.T) {
	if _, ok := Lookup("E13"); !ok {
		t.Error("E13 missing from registry")
	}
	if len(All()) != 18 {
		t.Errorf("registry size = %d", len(All()))
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", `q"u`}}}
	got := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"q\"\"u\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E14 runs 6-minute missions")
	}
	tb := E14Recovery(42, true) // quick: intensities 0.5 and 1.0
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] == "run failed" {
			t.Fatalf("intensity %s failed to run", row[0])
		}
	}
	// The acceptance bar: at full intensity the degradation reflexes
	// keep success at least 2x the reflexless mission.
	full := tb.Rows[len(tb.Rows)-1]
	if ratio := parseF(t, full[6]); ratio < 2 {
		t.Errorf("reflex/no-reflex success ratio %.2f at full intensity, want >= 2", ratio)
	}
	// Degradation deepens with intensity: success without reflexes falls.
	if lo, hi := parseF(t, tb.Rows[0][5]), parseF(t, full[5]); hi >= lo {
		t.Errorf("reflexless success rose with intensity: %.2f -> %.2f", lo, hi)
	}
}

func TestE17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E17 runs six 260s dissemination missions")
	}
	tb := E17Dissemination(42, true)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	byMode := map[string][]string{}
	for _, row := range tb.Rows {
		byMode[row[0]] = row
	}
	// The acceptance bar: gossip reconverges across the partition+heal
	// (>= 0.95) in the very scenario where BFS unicast strands a majority
	// of cross-partition traffic (< 0.5).
	if got := parseF(t, byMode["gossip"][1]); got < 0.95 {
		t.Errorf("gossip delivery %.3f, want >= 0.95", got)
	}
	if got := parseF(t, byMode["bfs"][1]); got >= 0.5 {
		t.Errorf("bfs delivery %.3f, want < 0.5", got)
	}
	// Repairs are what buys the convergence: gossip repaired, the
	// repairless modes could not.
	if parseF(t, byMode["gossip"][5]) == 0 {
		t.Error("gossip converged without a single anti-entropy repair")
	}
	for _, mode := range []string{"gossip", "flood", "bfs"} {
		if byMode[mode][6] != "yes" {
			t.Errorf("%s mode not deterministic across same-seed reruns", mode)
		}
	}
	if tb.Verification == nil || len(tb.Verification.Violations) != 0 {
		t.Errorf("invariant violations during E17: %+v", tb.Verification)
	}
}

// TestVerificationSweepsAtHorizon pins the closing sweep of E14, E15
// and E17: each run checks its invariants on every registry tick and
// once more at the horizon, so a violation introduced by the events
// after the last tick cannot escape. The tick at the horizon itself runs
// before those events, so a run makes horizon/every + 1 sweeps.
func TestVerificationSweepsAtHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs E14, E15 and E17 at quick scale")
	}
	sweeps := func(horizon, every time.Duration) uint64 { return uint64(horizon/every) + 1 }
	for _, c := range []struct {
		tb *Table
		// invariantRuns sums the armed invariant count over every run.
		invariantRuns uint64
		sweeps        uint64
	}{
		// Two intensities, each run with and without the reflexes, each
		// arming the 8 mission invariants at 1s.
		{E14Recovery(42, true), 2 * 2 * 8, sweeps(e14Horizon, time.Second)},
		// Four dispositions (none, cold, warm at two cadences), each
		// arming those 8 plus the attached tracker's consistency and
		// snapshot-determinism checks at 1s.
		{E15Failover(42, true), 4 * 10, sweeps(e15Horizon, time.Second)},
		// Gossip, flood and bfs, each run twice: three invariants at 5s,
		// plus gossip conservation where a Gossip overlay exists.
		{E17Dissemination(42, true), 2 * (4 + 4 + 3), sweeps(e17Horizon, 5*time.Second)},
	} {
		v := c.tb.Verification
		if v == nil {
			t.Fatalf("%s: no verification block", c.tb.ID)
		}
		if want := c.invariantRuns * c.sweeps; v.Checks != want {
			t.Errorf("%s: %d invariant checks, want %d (%d sweeps a run, the last at the horizon)",
				c.tb.ID, v.Checks, want, c.sweeps)
		}
	}
}

func TestE18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("E18 sweeps shard counts over dissemination runs")
	}
	tb := E18ShardScaling(42, true)
	if len(tb.Rows) != 8 { // quick: one size x {gossip,bfs} x {1,2,4,8}
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The acceptance bar: every shard count reproduces the 1-shard
	// digest, every run delivers, and nothing violates a conservation
	// law — sharding is a performance knob, not a semantic one.
	for _, row := range tb.Rows {
		if row[7] != "match" {
			t.Errorf("%s/%s shards=%s digest column = %q, want match", row[0], row[1], row[2], row[7])
		}
		if parseF(t, row[5]) <= 0 {
			t.Errorf("%s/%s shards=%s delivered nothing", row[0], row[1], row[2])
		}
	}
	if tb.Verification == nil || len(tb.Verification.Violations) != 0 {
		t.Errorf("conservation violations during E18: %+v", tb.Verification)
	}
	if tb.Verification != nil && tb.Verification.Checks == 0 {
		t.Error("E18 ran without counting a single conservation check")
	}
}
