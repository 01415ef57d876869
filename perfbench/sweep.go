package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// sweepFull is the reproduction as users run it: every experiment and
// ablation, non-quick, default options. The sweep takes no input, so the
// seed changes nothing here.
type sweepFull struct {
	op  uint64
	ids []string // experiments.All's and Ablations' IDs, in order
}

func newSweepFull(uint64) bench { return &sweepFull{} }

// cpuSetup: the quick sweep runs its sweeps on a worker pool.
func (*sweepFull) cpuSetup() {}

type experiment = func(experiments.Options) experiments.Result

// sweepAll and sweepAblations are the experiments experiments.All and
// Ablations run, in their order. The benchmark calls them one by one so
// it can time each in process CPU; set-up checks the lists against what
// All and Ablations return.
var (
	sweepAll = []experiment{
		experiments.E1LatencyTolerance, experiments.E2ContextCounts,
		experiments.E3CacheCoherence, experiments.E4ReadBeforeWrite,
		experiments.E5Trapezoid, experiments.E6PipelineAnatomy,
		experiments.E7Cmmp, experiments.E8Cmstar, experiments.E9FetchAndAdd,
		experiments.E10ConnectionMachine, experiments.E11Emulator,
		experiments.E12VLIW, experiments.E13ParallelismGrail,
		experiments.E14ConformanceSweep,
	}
	sweepAblations = []experiment{
		experiments.A1Optimizer, experiments.A2MatchCapacity,
		experiments.A3PipelineBandwidth, experiments.A4Topology,
		experiments.A5OpTiming,
	}
)

// setup runs the quick sweep once through experiments.All and Ablations:
// it loads every code path and sizes the heap, so the timed passes start
// warm, and it records the experiment IDs each pass must reproduce.
func (s *sweepFull) setup(*tracer, uint64) error {
	s.ids = s.ids[:0]
	for _, r := range append(experiments.All(experiments.Options{Quick: true}),
		experiments.Ablations(experiments.Options{Quick: true})...) {
		if r.Err != nil {
			return fmt.Errorf("quick %s: %w", r.ID, r.Err)
		}
		s.ids = append(s.ids, r.ID)
	}
	if len(s.ids) != len(sweepAll)+len(sweepAblations) {
		return fmt.Errorf("All and Ablations run %d experiments, the benchmark lists %d",
			len(s.ids), len(sweepAll)+len(sweepAblations))
	}
	return nil
}

// run completes whole passes only, so every pass weighs the experiments
// alike; the last pass may end after the deadline. An operation is one
// experiment of All, or the five of Ablations together, timed in process
// CPU; sweep_s is the median pass in wall time.
func (s *sweepFull) run(tr *tracer, until time.Time, m *measure) {
	var passS []float64
	var checks float64
	for time.Now().Before(until) {
		s.op++
		span := tr.begin("sweep", -1, s.op)
		start := time.Now()
		var ablCPU time.Duration
		var rs []experiments.Result
		for i, fn := range append(append([]experiment(nil), sweepAll...), sweepAblations...) {
			wall, cpu := time.Now(), processCPU()
			r := fn(experiments.Options{})
			c := processCPU() - cpu
			r.Wall = time.Since(wall)
			rs = append(rs, r)
			if i < len(sweepAll) {
				m.opMs = append(m.opMs, float64(c)/1e6)
				m.units++
			} else {
				ablCPU += c
			}
			m.busy += c.Seconds()
		}
		m.opMs = append(m.opMs, float64(ablCPU)/1e6)
		m.units++
		passS = append(passS, time.Since(start).Seconds())
		tr.end(span)
		m.ops++
		for i, r := range rs {
			// The span carries the experiment's wall time.
			tr.child("experiments."+r.ID, span, s.op, r.Wall)
			if r.ID != s.ids[i] {
				m.check(fmt.Errorf("experiment %d is %s, All and Ablations run %s", i, r.ID, s.ids[i]))
				continue
			}
			if r.Err != nil {
				m.check(fmt.Errorf("%s: %w", r.ID, r.Err))
				continue
			}
			m.check(nil)
			if r.ID == "E14" {
				c, err := conformanceChecks(r)
				m.check(err)
				checks = c
			}
		}
	}
	m.layer["sweep_s"] = median(passS)
	m.layer["conformance.checks"] = checks
}

// conformanceChecks sums E14's per-oracle check counts.
func conformanceChecks(r experiments.Result) (float64, error) {
	if len(r.Tables) == 0 {
		return 0, fmt.Errorf("E14: no oracle table")
	}
	t := r.Tables[0]
	col := -1
	for i, h := range t.Headers {
		if h == "checks" {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("E14: no checks column in %q", t.Title)
	}
	var sum float64
	for _, row := range t.Rows {
		n, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return 0, fmt.Errorf("E14: checks cell %q: %w", row[col], err)
		}
		sum += n
	}
	if sum == 0 {
		return 0, fmt.Errorf("E14 ran no oracle checks")
	}
	return sum, nil
}
