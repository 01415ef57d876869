package experiments

import (
	"fmt"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

// requireOK fails the test when the experiment errored, and checks basic
// report structure.
func requireOK(t *testing.T, r Result) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s failed: %v", r.ID, r.Err)
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s produced no tables", r.ID)
	}
	if r.Finding == "" {
		t.Fatalf("%s produced no finding", r.ID)
	}
	s := r.String()
	for _, want := range []string{r.ID, "anchor:", "claim:", "finding:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%s report missing %q:\n%s", r.ID, want, s)
		}
	}
}

// lastY returns the last point of the named column series in a SeriesTable
// by re-reading the table text — experiments expose shapes through tables,
// so the tests verify the shapes through the same surface.
func seriesColumn(t *testing.T, r Result, tableIdx int, col string) []float64 {
	t.Helper()
	tb := r.Tables[tableIdx]
	ci := -1
	for i, h := range tb.Headers {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s table %d has no column %q (headers %v)", r.ID, tableIdx, col, tb.Headers)
	}
	var out []float64
	for _, row := range tb.Rows {
		if row[ci] == "" {
			continue
		}
		var v float64
		if _, err := fmtSscan(row[ci], &v); err != nil {
			t.Fatalf("%s: cell %q not numeric", r.ID, row[ci])
		}
		out = append(out, v)
	}
	return out
}

func fmtSscan(s string, v *float64) (int, error) {
	s = strings.TrimSuffix(s, "x")
	return fmt.Sscan(s, v)
}

func TestE1Shape(t *testing.T) {
	r := E1LatencyTolerance(quick)
	requireOK(t, r)
	blocking := seriesColumn(t, r, 0, "vN-blocking util")
	slow := seriesColumn(t, r, 0, "TTDA slowdown")
	if blocking[len(blocking)-1] >= blocking[0] {
		t.Fatalf("blocking utilization must fall with latency: %v", blocking)
	}
	// The blocking core's run time scales as util[0]/util[last]; the TTDA
	// must degrade far less over the same latency range.
	blockingSlowdown := blocking[0] / blocking[len(blocking)-1]
	if got := slow[len(slow)-1]; got > blockingSlowdown/2 {
		t.Fatalf("TTDA slowdown %v should be well under blocking slowdown %v", got, blockingSlowdown)
	}
}

func TestE2Shape(t *testing.T) {
	r := E2ContextCounts(quick)
	requireOK(t, r)
}

func TestE3Shape(t *testing.T) {
	r := E3CacheCoherence(quick)
	requireOK(t, r)
	shared := seriesColumn(t, r, 0, "cycles/access shared")
	private := seriesColumn(t, r, 0, "cycles/access private")
	if shared[len(shared)-1] <= private[len(private)-1] {
		t.Fatalf("shared data must cost more than private at scale: %v vs %v", shared, private)
	}
}

func TestE4Shape(t *testing.T) {
	r := E4ReadBeforeWrite(quick)
	requireOK(t, r)
	// row order: barrier, chunked, per-element; cycles strictly improving
	cycles := seriesColumn(t, r, 0, "cycles")
	if !(cycles[2] < cycles[0]) {
		t.Fatalf("per-element sync must beat the barrier: %v", cycles)
	}
	deferred := seriesColumn(t, r, 0, "deferred reads")
	if deferred[2] == 0 {
		t.Fatal("per-element run should have deferred reads (the synchronization evidence)")
	}
}

func TestE5Shape(t *testing.T) {
	r := E5Trapezoid(quick)
	requireOK(t, r)
}

func TestE6Shape(t *testing.T) {
	r := E6PipelineAnatomy(quick)
	requireOK(t, r)
}

func TestE7Shape(t *testing.T) {
	r := E7Cmmp(quick)
	requireOK(t, r)
	ratio := seriesColumn(t, r, 1, "semaphore overhead x")
	if ratio[len(ratio)-1] < 3 {
		t.Fatalf("semaphore cost should far exceed an ALU op: %v", ratio)
	}
}

func TestE8Shape(t *testing.T) {
	r := E8Cmstar(quick)
	requireOK(t, r)
	util := seriesColumn(t, r, 0, "utilization")
	if util[len(util)-1] >= util[0] {
		t.Fatalf("utilization must fall with distance: %v", util)
	}
}

func TestE9Shape(t *testing.T) {
	r := E9FetchAndAdd(quick)
	requireOK(t, r)
	hotPlain := seriesColumn(t, r, 0, "hot-bank reqs plain")
	hotComb := seriesColumn(t, r, 0, "hot-bank reqs comb")
	if hotComb[len(hotComb)-1] >= hotPlain[len(hotPlain)-1] {
		t.Fatalf("combining must reduce hot-bank traffic: %v vs %v", hotComb, hotPlain)
	}
}

func TestE10Shape(t *testing.T) {
	r := E10ConnectionMachine(quick)
	requireOK(t, r)
	frac := seriesColumn(t, r, 0, "comm fraction")
	if frac[len(frac)-1] < 0.5 {
		t.Fatalf("communication should dominate: %v", frac)
	}
}

func TestE11Shape(t *testing.T) {
	r := E11Emulator(quick)
	requireOK(t, r)
}

func TestE12Shape(t *testing.T) {
	r := E12VLIW(quick)
	requireOK(t, r)
	ops := seriesColumn(t, r, 0, "ops/cycle L=100")
	if ops[len(ops)-1] >= ops[0] {
		t.Fatalf("issue rate must fall with miss rate: %v", ops)
	}
}

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("All() in quick mode still takes seconds")
	}
	results := All(quick)
	if len(results) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(results))
	}
	for i, r := range results {
		requireOK(t, r)
		if r.ID != catalog[i].id {
			t.Fatalf("catalog lists %s at %d, the experiment reports %s", catalog[i].id, i, r.ID)
		}
	}
}

// TestSelectedRunsOnlyNamed pins that selection happens before running:
// asking for E14 runs E14 alone, and an ID no experiment carries runs
// nothing.
func TestSelectedRunsOnlyNamed(t *testing.T) {
	results := Selected(quick, true, func(id string) bool { return id == "E14" })
	if len(results) != 1 || results[0].ID != "E14" {
		ids := make([]string, len(results))
		for i, r := range results {
			ids[i] = r.ID
		}
		t.Fatalf("selecting E14 ran %v", ids)
	}
	requireOK(t, results[0])
	if got := Selected(quick, true, func(id string) bool { return id == "E99" }); len(got) != 0 {
		t.Fatalf("an unknown ID ran %d experiments", len(got))
	}
}

func TestA1Shape(t *testing.T) {
	r := A1Optimizer(quick)
	requireOK(t, r)
	fired := seriesColumn(t, r, 0, "fired")
	if fired[1] >= fired[0] {
		t.Fatalf("optimizer must reduce dynamic firings: %v", fired)
	}
}

func TestA2Shape(t *testing.T) {
	r := A2MatchCapacity(quick)
	requireOK(t, r)
	cycles := seriesColumn(t, r, 0, "cycles")
	if cycles[len(cycles)-1] <= cycles[0] {
		t.Fatalf("small matching stores must cost cycles: %v", cycles)
	}
}

func TestA3Shape(t *testing.T) {
	r := A3PipelineBandwidth(quick)
	requireOK(t, r)
	cycles := seriesColumn(t, r, 0, "cycles")
	if cycles[len(cycles)-1] >= cycles[0] {
		t.Fatalf("wider pipeline sections must help: %v", cycles)
	}
}

func TestA4Shape(t *testing.T) {
	r := A4Topology(quick)
	requireOK(t, r)
}

func TestAblationsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for i, r := range Ablations(quick) {
		requireOK(t, r)
		if r.ID != ablationCatalog[i].id {
			t.Fatalf("catalog lists %s at %d, the ablation reports %s", ablationCatalog[i].id, i, r.ID)
		}
	}
}

func TestE13Shape(t *testing.T) {
	r := E13ParallelismGrail(quick)
	requireOK(t, r)
	// wavefront max width must grow with size; serial sum-loop must not
	wf := seriesColumn(t, r, 2, "max width")
	if wf[len(wf)-1] <= wf[0] {
		t.Fatalf("wavefront parallelism must grow: %v", wf)
	}
	serial := seriesColumn(t, r, 3, "max width")
	if serial[len(serial)-1] > serial[0]*2 {
		t.Fatalf("serial loop width must stay flat: %v", serial)
	}
}

func TestE14Shape(t *testing.T) {
	r := E14ConformanceSweep(quick)
	requireOK(t, r)
	if len(r.Tables) != 1 {
		t.Fatalf("expected 1 table, got %d", len(r.Tables))
	}
	rows := r.Tables[0].Rows
	families := []string{
		"result-equivalence", "determinism", "metamorphic",
		"engine-honesty", "checkpoint-equivalence", "direct-equivalence",
	}
	if len(rows) != len(families) {
		t.Fatalf("expected one row per oracle family, got %d", len(rows))
	}
	for i, row := range rows {
		if row[0] != families[i] {
			t.Fatalf("row %d is family %v, want %s", i, row[0], families[i])
		}
		if row[1] == "0" {
			t.Fatalf("oracle family %v ran zero checks", row[0])
		}
		if row[2] != "0" {
			t.Fatalf("oracle family %v reported violations: %v", row[0], row[2])
		}
	}
}

func TestA5Shape(t *testing.T) {
	r := A5OpTiming(quick)
	requireOK(t, r)
	cycles := seriesColumn(t, r, 0, "cycles")
	if cycles[1] <= cycles[0] {
		t.Fatalf("weighted ALU must cost cycles: %v", cycles)
	}
}
