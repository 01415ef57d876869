package conformance

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// seedFlag re-runs a single generator seed verbosely — the minimized
// reproduction command every Violation prints.
var seedFlag = flag.Int64("conformance.seed", -1, "run only this conformance generator seed")

// ckptAtFlag and ckptOutFlag are the time-travel repro a Violation with a
// known run length prints: pause the seed's TTDA run at a cycle just
// before the divergence and write the checkpoint for offline inspection.
var (
	ckptAtFlag  = flag.Int64("conformance.ckpt-at", -1, "with -conformance.seed: pause the TTDA run at this cycle and write a checkpoint")
	ckptOutFlag = flag.String("conformance.ckpt-out", "", "path for the -conformance.ckpt-at checkpoint artifact")
)

// numSeeds is how many generated programs the full sweep pushes through
// the TTDA, the vn core, and all six Section-1.2 baselines.
const numSeeds = 64

func TestConformanceSeeds(t *testing.T) {
	if *seedFlag >= 0 {
		seed := uint64(*seedFlag)
		w := Generate(seed)
		t.Logf("workload: %s", w)
		t.Logf("MiniID form:\n%s", w.IDSource())
		t.Logf("vn form:\n%s", w.ASMSource())
		if *ckptAtFlag >= 0 {
			if *ckptOutFlag == "" {
				t.Fatal("-conformance.ckpt-at requires -conformance.ckpt-out")
			}
			msg, err := MaterializeCheckpoint(seed, sim.Cycle(*ckptAtFlag), *ckptOutFlag)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(msg)
			return
		}
		for _, v := range CheckSeed(seed) {
			t.Errorf("%s", v)
		}
		return
	}
	for seed := uint64(0); seed < numSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, v := range CheckSeed(seed) {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestGeneratorDeterministic pins that a seed always yields the same
// program in both forms — the property every Repro() command relies on.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.IDSource() != b.IDSource() || a.ASMSource() != b.ASMSource() {
			t.Fatalf("seed %d generated two different programs", seed)
		}
	}
}

// TestGeneratorCoverage keeps the generator from silently collapsing to
// one corner of the program space.
func TestGeneratorCoverage(t *testing.T) {
	shapes := map[Shape]int{}
	ops := map[byte]int{}
	for seed := uint64(0); seed < 200; seed++ {
		w := Generate(seed)
		shapes[w.Shape]++
		ops[w.Op]++
	}
	if shapes[ShapeReduce] == 0 || shapes[ShapeFill] == 0 {
		t.Fatalf("generator lost a shape: %v", shapes)
	}
	if ops['+'] == 0 || ops['*'] == 0 {
		t.Fatalf("generator lost a fold operator: %v", ops)
	}
}

// TestHarnessDetectsFlippedLatencyComparison seeds a single metamorphic
// violation through a dishonest test double — a machine whose cycle
// count drops as latency rises, i.e. a hand-flipped comparison — and
// demands the harness fail with a minimized reproduction command.
func TestHarnessDetectsFlippedLatencyComparison(t *testing.T) {
	ct := newCounter(12345)
	checkLatencyMonotone(ct, "double", []sim.Cycle{2, 6, 18}, func(lat sim.Cycle) (uint64, error) {
		return uint64(1000 - lat), nil // faster with slower memory: impossible
	})
	if len(ct.vs) == 0 {
		t.Fatal("harness accepted a machine that speeds up when memory slows down")
	}
	v := ct.vs[0]
	if v.Oracle != OracleMetamorphic {
		t.Fatalf("violation filed under %q, want %q", v.Oracle, OracleMetamorphic)
	}
	if !strings.Contains(v.Repro(), "-conformance.seed=12345") {
		t.Fatalf("violation lacks a minimized repro command: %q", v.Repro())
	}
	if !strings.Contains(v.String(), "reproduce with:") {
		t.Fatalf("violation text does not surface the repro command:\n%s", v)
	}
}

// TestHarnessDetectsCriticalPathViolation feeds the S∞ lower-bound check
// a cycle count below the graph's critical path.
func TestHarnessDetectsCriticalPathViolation(t *testing.T) {
	ct := newCounter(7)
	checkCriticalPathBound(ct, 100, 4, 99, nil)
	if len(ct.vs) == 0 {
		t.Fatal("harness accepted a TTDA run faster than the graph's S∞")
	}
	if !strings.Contains(ct.vs[0].Detail, "S∞=100") {
		t.Fatalf("violation detail omits the bound: %q", ct.vs[0].Detail)
	}
	// The honest direction must still pass.
	ok := newCounter(7)
	checkCriticalPathBound(ok, 100, 4, 100, nil)
	checkCriticalPathBound(ok, 100, 4, 5000, nil)
	if len(ok.vs) != 0 {
		t.Fatalf("lower-bound check rejected honest cycle counts: %v", ok.vs)
	}
}

// TestHarnessDetectsCorruptedDirectResult doctors the direct-execution
// seam so the oracle backend reports an off-by-one answer, and demands the
// direct-equivalence oracle fail with the standard minimized repro
// command. This is the teeth test for the direct-execution family: a backend with no
// cycle model has exactly one observable, so the harness must die the
// moment that observable drifts.
func TestHarnessDetectsCorruptedDirectResult(t *testing.T) {
	honest := directRun
	defer func() { directRun = honest }()
	directRun = func(c *compiled) (int64, uint64, error) {
		v, fired, err := honest(c)
		return v + 1, fired, err // corrupt the answer, keep the firing count
	}

	ct := newCounter(12345)
	w := Generate(12345)
	c, err := compile(w)
	if err != nil {
		t.Fatal(err)
	}
	checkDirect(ct, c)
	if len(ct.vs) == 0 {
		t.Fatal("harness accepted a corrupted direct-backend result")
	}
	v := ct.vs[0]
	if v.Oracle != OracleDirect {
		t.Fatalf("violation filed under %q, want %q", v.Oracle, OracleDirect)
	}
	if !strings.Contains(v.Repro(), "-conformance.seed=12345") {
		t.Fatalf("violation lacks a minimized repro command: %q", v.Repro())
	}
	if !strings.Contains(v.String(), "reproduce with:") {
		t.Fatalf("violation text does not surface the repro command:\n%s", v)
	}

	// The honest backend must pass the same seed cleanly.
	directRun = honest
	ok := newCounter(12345)
	checkDirect(ok, c)
	if len(ok.vs) != 0 {
		t.Fatalf("direct oracle rejected the honest backend: %v", ok.vs)
	}
}

// TestSweepReport pins the aggregate report shape E14 and the
// critique-bench smoke flag consume.
func TestSweepReport(t *testing.T) {
	r := Sweep(4)
	if r.Programs != 4 {
		t.Fatalf("Programs = %d, want 4", r.Programs)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", r.Violations)
	}
	for _, o := range []Oracle{OracleResult, OracleDeterminism, OracleMetamorphic, OracleHonesty, OracleCheckpoint, OracleDirect} {
		if r.PerOracle[o] == 0 {
			t.Fatalf("oracle family %q ran zero checks", o)
		}
	}
	if !strings.Contains(r.Summary(), "all passed") {
		t.Fatalf("summary: %q", r.Summary())
	}
}

// TestSweepOptsWorkerInvariant pins that the parallel sweep runner yields
// the identical aggregate report at any worker count — the property that
// lets CI and the bench harness fan the 64-seed suite across cores.
func TestSweepOptsWorkerInvariant(t *testing.T) {
	ref := Sweep(4)
	par := SweepOpts(4, 3)
	if par.Programs != ref.Programs || par.Checks != ref.Checks {
		t.Fatalf("parallel sweep tallies diverged: %d/%d programs, %d/%d checks",
			par.Programs, ref.Programs, par.Checks, ref.Checks)
	}
	for o, k := range ref.PerOracle {
		if par.PerOracle[o] != k {
			t.Fatalf("oracle %q: %d checks parallel, %d sequential", o, par.PerOracle[o], k)
		}
	}
	if len(par.Violations) != len(ref.Violations) {
		t.Fatalf("violation counts diverged: %d parallel, %d sequential", len(par.Violations), len(ref.Violations))
	}
}

// TestBothFormsAgreeWithGo is the tight inner loop of the result oracle,
// kept separate so a generator bug is caught even if machine plumbing
// breaks first: MiniID interpretation and the vn core must both match
// the pure-Go fold.
func TestBothFormsAgreeWithGo(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		w := Generate(seed)
		c, err := compile(w)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := w.Expected()
		got, _, err := runInterp(c)
		if err != nil {
			t.Fatalf("seed %d interp: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: interp %d, Go %d (%s)", seed, got, want, w)
		}
		s, err := runVN(c, 1, 2, false)
		if err != nil {
			t.Fatalf("seed %d vn: %v", seed, err)
		}
		if s.Result != want {
			t.Errorf("seed %d: vn %d, Go %d (%s)", seed, s.Result, want, w)
		}
	}
}
