// Package experiments contains the reproduction harness: one experiment
// per figure or quantitative claim in the paper, as indexed in DESIGN.md.
// Each experiment builds its machines from the substrate packages, sweeps
// the parameter the paper's argument turns on, and renders the series as
// text tables. cmd/critique-bench prints them; bench_test.go wraps them as
// benchmarks; EXPERIMENTS.md records paper-claim versus measured shape.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for use in tests and benchmarks.
	Quick bool
	// SweepWorkers bounds the parallel sweep runner's worker pool for
	// each experiment's parameter sweep (internal/sweep); <= 0 means
	// GOMAXPROCS. Results are deterministic at any setting.
	SweepWorkers int
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Anchor string // where in the paper the claim lives
	Claim  string // the paper's claim, paraphrased
	Tables []*metrics.Table
	// Finding is the observed one-line shape, for EXPERIMENTS.md.
	Finding string
	// Err reports an experiment that failed to run.
	Err error
	// Wall is how long the experiment took to run, for BENCH tracking.
	Wall time.Duration
}

// String renders the full experiment report.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s\n   anchor: %s\n   claim:  %s\n", r.ID, r.Title, r.Anchor, r.Claim)
	if r.Err != nil {
		return s + fmt.Sprintf("   ERROR: %v\n", r.Err)
	}
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	s += "\nfinding: " + r.Finding + "\n"
	return s
}

// experiment pairs an experiment's ID with the function that runs it, so
// callers can select experiments by ID before running any.
type experiment struct {
	id  string
	run func(Options) Result
}

// catalog lists E1–E14 in report order.
var catalog = []experiment{
	{"E1", E1LatencyTolerance},
	{"E2", E2ContextCounts},
	{"E3", E3CacheCoherence},
	{"E4", E4ReadBeforeWrite},
	{"E5", E5Trapezoid},
	{"E6", E6PipelineAnatomy},
	{"E7", E7Cmmp},
	{"E8", E8Cmstar},
	{"E9", E9FetchAndAdd},
	{"E10", E10ConnectionMachine},
	{"E11", E11Emulator},
	{"E12", E12VLIW},
	{"E13", E13ParallelismGrail},
	{"E14", E14ConformanceSweep},
}

// All runs every experiment in order.
func All(opt Options) []Result { return run(opt, catalog, nil) }

// Selected runs, in All-then-Ablations order, only the experiments and
// ablations whose IDs keep accepts; the rest never run. Ablations are
// considered only when withAblations is set.
func Selected(opt Options, withAblations bool, keep func(id string) bool) []Result {
	list := catalog
	if withAblations {
		list = append(append([]experiment(nil), catalog...), ablationCatalog...)
	}
	return run(opt, list, keep)
}

// run runs the experiments of list that keep accepts (all of them when
// keep is nil), in list order, stamping each Result with its wall time.
func run(opt Options, list []experiment, keep func(id string) bool) []Result {
	var out []Result
	for _, e := range list {
		if keep != nil && !keep(e.id) {
			continue
		}
		start := time.Now()
		r := e.run(opt)
		r.Wall = time.Since(start)
		out = append(out, r)
	}
	return out
}

// pick returns q when quick, full otherwise.
func pick(opt Options, full, q []int) []int {
	if opt.Quick {
		return q
	}
	return full
}
