// Command critique-bench runs the full reproduction suite: experiments
// E1-E12, one per figure or quantitative claim of the paper (see DESIGN.md
// for the index), and prints their tables and findings. The recorded
// output lives in EXPERIMENTS.md.
//
// Usage:
//
//	critique-bench             # full sweeps (a few minutes)
//	critique-bench -quick      # reduced sweeps (seconds)
//	critique-bench -only E4,E9
//	critique-bench -markdown   # emit the EXPERIMENTS.md body
//	critique-bench -bench BENCH.json   # also write kernel-speed measurements
//	critique-bench -conformance 25     # cross-machine conformance smoke run
//	critique-bench -checkpoint-every 2000      # split-run self-check
//	critique-bench -resume CKPT.bin            # resume and verify the split run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/cmstar"
	"repro/internal/machines/ultra"
	"repro/internal/machines/vliw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
	"repro/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	only := flag.String("only", "", "run only these comma-separated experiment ids (e.g. E1,E9,A2)")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-formatted output")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	ablations := flag.Bool("ablations", true, "include the A-series design ablations")
	benchOut := flag.String("bench", "", "write simulator-speed benchmark results (Mcycles/s, Minstr/s, sweep wall time) to this JSON file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	confSmoke := flag.Int("conformance", 0, "run N seeds of the cross-machine conformance harness and exit (nonzero exit on any violation)")
	sweepWorkers := flag.Int("sweep-workers", 0, "bound the parallel sweep runner's worker pool for experiment and conformance sweeps (<= 0 = GOMAXPROCS; results are identical at any setting)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "run the kernel workload pausing every N cycles to checkpoint, verify the split run is cycle-for-cycle identical to a straight run, and exit")
	ckptOut := flag.String("checkpoint-out", "critique-bench.ckpt", "checkpoint file for -checkpoint-every")
	resumeFrom := flag.String("resume", "", "resume the kernel workload from this checkpoint file, verify against a straight run, and exit")
	flag.Parse()

	if *ckptEvery > 0 || *resumeFrom != "" {
		if err := checkpointSelfCheck(*ckptEvery, *ckptOut, *resumeFrom); err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *confSmoke > 0 {
		rep := conformance.SweepOpts(*confSmoke, *sweepWorkers)
		fmt.Println(rep.Summary())
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "critique-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "critique-bench:", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		s = strings.TrimSpace(strings.ToUpper(s))
		if s != "" {
			want[s] = true
		}
	}

	sweepStart := time.Now()
	opt := experiments.Options{Quick: *quick, SweepWorkers: *sweepWorkers}
	selected := experiments.Selected(opt, *ablations, func(id string) bool { return len(want) == 0 || want[id] })
	sweepWall := time.Since(sweepStart)
	failed := 0
	for _, r := range selected {
		if r.Err != nil {
			failed++
		}
	}
	switch {
	case *jsonOut:
		printJSON(selected)
	case *markdown:
		for _, r := range selected {
			printMarkdown(r)
		}
	default:
		for _, r := range selected {
			fmt.Println(r)
		}
	}
	if *benchOut != "" {
		if err := writeBench(*benchOut, *quick, *sweepWorkers, selected, sweepWall); err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "critique-bench: %d experiments failed\n", failed)
		os.Exit(1)
	}
}

// benchSchemaVersion identifies the layout of the -bench JSON document.
// Bump it on any incompatible field change so downstream consumers (the
// future content-addressed result cache) can refuse stale layouts instead
// of misreading them. Version 2 added epoch-window columns to the shard
// sweep plus the sweep_workers and barrier_ns_per_epoch fields. Version 3
// added the direct-execution oracle backend fields
// (direct_wall_ms_per_run, direct_mfirings_per_sec,
// direct_speedup_vs_interpreted). Version 4 removed the parallel kernel's
// fields (kernel_shards, barrier_ns_per_epoch) and added num_cpu. Version
// 5 removed compiled_kernel_wall_ms_per_run and compiled_mcycles_per_sec:
// the TTDA has one execution path, the compiled plan, which the kernel_*
// fields already time. Version 6 renamed direct_speedup_vs_interpreted to
// direct_speedup_vs_ttda and the direct_workloads row key
// speedup_vs_interpreted to speedup_vs_ttda: the ratio has always been
// direct against the plan-driven TTDA.
const benchSchemaVersion = 6

// checkpointSelfCheck demonstrates and verifies split-run bit-identity on
// the kernel workload (matmul(4) on 8 PEs): a run paused every `every`
// cycles — or resumed from a prior checkpoint file — must match a
// straight uninterrupted run cycle-for-cycle, statistic-for-statistic,
// and byte-for-byte in its end-of-run checkpoint.
func checkpointSelfCheck(every uint64, out, resumeFrom string) error {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		return err
	}
	build := func() *core.Machine { return core.NewMachine(core.Config{PEs: 8}, prog) }
	args := []token.Value{token.Int(4)}

	ref := build()
	if _, err := ref.Run(1_000_000_000, args...); err != nil {
		return err
	}
	refBytes := sim.Checkpoint(ref)

	m := build()
	if resumeFrom != "" {
		data, err := os.ReadFile(resumeFrom)
		if err != nil {
			return err
		}
		if err := sim.Restore(m, data); err != nil {
			return fmt.Errorf("resume %s: %v", resumeFrom, err)
		}
		fmt.Printf("resumed from %s at cycle %d\n", resumeFrom, m.Engine().Now())
	}
	wrote := 0
	for {
		_, err := m.Run(splitBudget(every), args...)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "did not finish") {
			return err
		}
		if every == 0 {
			return fmt.Errorf("resumed run did not finish: %v", err)
		}
		if werr := os.WriteFile(out, sim.Checkpoint(m), 0o644); werr != nil {
			return werr
		}
		wrote++
	}
	if got, want := m.Summarize().Cycles, ref.Summarize().Cycles; got != want {
		return fmt.Errorf("split run took %d cycles, straight run %d — bit-identity broken", got, want)
	}
	if !bytes.Equal(sim.Checkpoint(m), refBytes) {
		return fmt.Errorf("split run end state differs from straight run — bit-identity broken")
	}
	if wrote > 0 {
		fmt.Printf("wrote %d checkpoints to %s\n", wrote, out)
	}
	fmt.Printf("checkpoint self-check passed: split run matches straight run (%d cycles, %d-byte end state)\n",
		ref.Summarize().Cycles, len(refBytes))
	return nil
}

// splitBudget is the per-Run cycle budget of the self-check loop: `every`
// when periodic checkpointing is on, effectively unbounded when only
// resuming.
func splitBudget(every uint64) sim.Cycle {
	if every == 0 {
		return 1_000_000_000
	}
	return sim.Cycle(every)
}

// benchReport is the schema of the -bench JSON file, for tracking
// simulator speed across revisions (BENCH_*.json).
type benchReport struct {
	// SchemaVersion and CodeVersion identify the document layout and the
	// producing code revision; see benchSchemaVersion and
	// buildinfo.CodeVersion.
	SchemaVersion int    `json:"schema_version"`
	CodeVersion   string `json:"code_version"`

	Quick bool `json:"quick"`
	// NumCPU and GoMaxProcs are the measuring host's logical CPU count
	// and scheduler-thread count; the sweep_scaling speedup column cannot
	// exceed either.
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`
	// SweepWallMs is the wall time of the full experiment sweep run by
	// this invocation, and SweepExperiments the experiment count behind it.
	SweepWallMs      float64 `json:"sweep_wall_ms"`
	SweepExperiments int     `json:"sweep_experiments"`
	// ExperimentWallMs breaks the sweep down per experiment id.
	ExperimentWallMs map[string]float64 `json:"experiment_wall_ms"`
	// Kernel speed: matmul(4) on 8 PEs, the BenchmarkTTDAMachine workload.
	KernelProgram   string  `json:"kernel_program"`
	KernelPEs       int     `json:"kernel_pes"`
	KernelRuns      int     `json:"kernel_runs"`
	KernelSimCycles uint64  `json:"kernel_sim_cycles"`
	KernelInstrs    uint64  `json:"kernel_instructions"`
	KernelWallMs    float64 `json:"kernel_wall_ms_per_run"`
	McyclesPerSec   float64 `json:"mcycles_per_sec"`
	MinstrPerSec    float64 `json:"minstr_per_sec"`
	// CompileMs is the one-time graph.Compile cost (constant folding and
	// dead-arc elimination included) for the kernel program.
	CompileMs float64 `json:"compile_ms"`
	// DirectWorkloads times the direct-execution oracle backend against
	// the TTDA (8 PEs, same program and argument, results and
	// firing counts asserted bit-identical to the reference interpreter on
	// every run): one row per workload, because the speedup is shape-
	// dependent — loop-circulation firings collapse into native Go loops
	// (two orders of magnitude), while recursion-heavy graphs only shed
	// the cycle model (single digits). The headline DirectRuns/DirectWallMs/
	// DirectMfiringsSec/DirectSpeedup fields repeat the DirectProgram row —
	// the loop workload, where the backend's reason to exist lives. Like
	// all wall numbers here they inherit this host's run-to-run noise (see
	// GoMaxProcs); the ratio's magnitude, not its third digit, is the claim.
	DirectProgram     string        `json:"direct_program"`
	DirectRuns        int           `json:"direct_runs"`
	DirectWallMs      float64       `json:"direct_wall_ms_per_run"`
	DirectMfiringsSec float64       `json:"direct_mfirings_per_sec"`
	DirectSpeedup     float64       `json:"direct_speedup_vs_ttda"`
	DirectWorkloads   []directBench `json:"direct_workloads"`
	// KernelCounters reports the engine's scheduling counters for one
	// kernel run: component steps actually executed, cycles the wake-queue
	// jumped over, and wakes enqueued. steps_executed against sim_cycles is
	// the sparse-activation win in one ratio.
	KernelCounters sim.Counters `json:"kernel_engine_counters"`
	// SweepWorkers echoes the -sweep-workers bound this run used for the
	// experiment sweep (0 = GOMAXPROCS).
	SweepWorkers int `json:"sweep_workers"`
	// SweepScaling times one fixed conformance sweep at several worker
	// counts on the shared sweep runner; on a single-CPU host (see
	// GoMaxProcs) the speedup column cannot exceed 1.0.
	SweepScaling []sweepScaleBench `json:"sweep_scaling"`
	// Baselines records simulated-cycle throughput for the von Neumann
	// baseline machines on their experiment workloads, so baseline
	// simulator speed is tracked across revisions alongside the TTDA kernel.
	Baselines []baselineBench `json:"baselines"`
}

// baselineBench is one baseline machine's throughput measurement.
type baselineBench struct {
	Machine       string  `json:"machine"`
	Workload      string  `json:"workload"`
	Runs          int     `json:"runs"`
	SimCycles     uint64  `json:"sim_cycles"`
	WallMsPerRun  float64 `json:"wall_ms_per_run"`
	McyclesPerSec float64 `json:"mcycles_per_sec"`
	// Counters holds the engine's scheduling counters for the last run
	// (zero for machines that do not expose their engine).
	Counters sim.Counters `json:"engine_counters"`
}

// benchBaselines times each baseline machine on a workload shaped like its
// experiment (E2 multithreaded vn, E7 C.mmp, E8 Cm*, E9 Ultracomputer,
// E12 VLIW). Each entry reports simulated Mcycles per wall-second.
func benchBaselines(runs int) ([]baselineBench, error) {
	cases := []struct {
		machine, workload string
		run               func() (sim.Cycle, sim.Counters, error)
	}{
		{"vn-16ctx", "E2-style memloop, latency 200", func() (sim.Cycle, sim.Counters, error) {
			prog, err := vn.Assemble(workload.MemLoopASM)
			if err != nil {
				return 0, sim.Counters{}, err
			}
			mem := vn.NewLatencyMemory(200)
			c := vn.NewCore(prog, mem, 16)
			for i := 0; i < 16; i++ {
				c.Context(i).SetReg(1, vn.Word(1000+1000*i))
				c.Context(i).SetReg(4, 100)
			}
			eng := sim.NewEngine()
			eng.Register(mem)
			eng.Register(c)
			elapsed, ok := eng.Run(c.Halted, 20_000_000)
			if !ok {
				return 0, sim.Counters{}, fmt.Errorf("bench vn: run did not halt")
			}
			return elapsed, eng.Counters(), nil
		}},
		{"cmmp", "E7-style lock-protected counter, 8 processors", func() (sim.Cycle, sim.Counters, error) {
			prog, err := vn.Assemble(workload.CounterLockASM)
			if err != nil {
				return 0, sim.Counters{}, err
			}
			m := cmmp.New(cmmp.Config{Processors: 8, Banks: 8}, prog, 1)
			for q := 0; q < 8; q++ {
				m.Core(q).Context(0).SetReg(5, 50)
			}
			elapsed, err := m.Run(50_000_000)
			return elapsed, m.Engine().Counters(), err
		}},
		{"cmstar", "E8-style cross-cluster memloop, distance 2", func() (sim.Cycle, sim.Counters, error) {
			prog, err := vn.Assemble(workload.MemLoopASM)
			if err != nil {
				return 0, sim.Counters{}, err
			}
			const clusterWords = 4096
			m := cmstar.New(cmstar.Config{Clusters: 4, CoresPerCluster: 1, ClusterWords: clusterWords}, prog)
			for i := 1; i < m.NumCores(); i++ {
				m.CoreAt(i).Context(0).SetPC(len(prog.Instrs) - 1)
			}
			h := m.Core(0, 0).Context(0)
			h.SetReg(1, vn.Word(2*clusterWords))
			h.SetReg(4, 100)
			elapsed, err := m.Run(10_000_000)
			return elapsed, m.Engine().Counters(), err
		}},
		{"ultra", "E9-style hotspot faa loop, 16 processors, combining", func() (sim.Cycle, sim.Counters, error) {
			// HotspotASM issues a single faa; loop it so the measurement
			// covers the combining network, not machine setup.
			prog, err := vn.Assemble(`
loop:   li   r1, 0
        li   r2, 1
        faa  r3, r1, r2
        st   r3, r4, 0
        addi r5, r5, -1
        bne  r5, r0, loop
        halt
`)
			if err != nil {
				return 0, sim.Counters{}, err
			}
			m := ultra.New(ultra.Config{LogProcessors: 4, Combining: true}, prog)
			for p := 0; p < m.NumProcessors(); p++ {
				m.Core(p).Context(0).SetReg(4, vn.Word(1000+p))
				m.Core(p).Context(0).SetReg(5, 100)
			}
			elapsed, err := m.Run(20_000_000)
			return elapsed, m.Engine().Counters(), err
		}},
		{"vliw", "E12-style synthetic schedule, 2000 bundles", func() (sim.Cycle, sim.Counters, error) {
			sched := vliw.SyntheticSchedule(2000, 4, 2, 4)
			res := vliw.Run(sched, vliw.Config{HitLatency: 3, MissLatency: 20, MissRate: 0.05, Seed: 11})
			return res.Cycles, res.Engine, nil
		}},
	}
	var out []baselineBench
	for _, bc := range cases {
		var cycles sim.Cycle
		var counters sim.Counters
		start := time.Now()
		for i := 0; i < runs; i++ {
			c, cnt, err := bc.run()
			if err != nil {
				return nil, err
			}
			cycles = c
			counters = cnt
		}
		wall := time.Since(start)
		out = append(out, baselineBench{
			Machine:       bc.machine,
			Workload:      bc.workload,
			Runs:          runs,
			SimCycles:     uint64(cycles),
			WallMsPerRun:  float64(wall.Microseconds()) / 1e3 / float64(runs),
			McyclesPerSec: float64(cycles) * float64(runs) / fmaxf(1e-9, wall.Seconds()) / 1e6,
			Counters:      counters,
		})
	}
	return out, nil
}

func fmaxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// writeBench measures cycle-accurate-kernel simulation speed on the
// BenchmarkTTDAMachine workload and writes the report to path.
func writeBench(path string, quick bool, sweepWorkers int, selected []experiments.Result, sweepWall time.Duration) error {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		return err
	}
	runs := 10
	if quick {
		runs = 3
	}
	var cycles, instrs uint64
	var kernelCounters sim.Counters
	start := time.Now()
	for i := 0; i < runs; i++ {
		m := core.NewMachine(core.Config{PEs: 8}, prog)
		if _, err := m.Run(1_000_000_000, token.Int(4)); err != nil {
			return err
		}
		s := m.Summarize()
		cycles, instrs = s.Cycles, s.Fired
		kernelCounters = m.Engine().Counters()
	}
	wall := time.Since(start)

	compileStart := time.Now()
	if _, err := graph.Compile(prog, graph.WithConstantFolding(), graph.WithDeadArcElimination()); err != nil {
		return err
	}
	compileWall := time.Since(compileStart)

	directRows, err := benchDirect(quick)
	if err != nil {
		return err
	}

	perExp := make(map[string]float64, len(selected))
	for _, r := range selected {
		perExp[r.ID] = float64(r.Wall.Microseconds()) / 1e3
	}
	rep := benchReport{
		SchemaVersion:    benchSchemaVersion,
		CodeVersion:      buildinfo.CodeVersion(),
		Quick:            quick,
		NumCPU:           runtime.NumCPU(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		SweepWallMs:      float64(sweepWall.Microseconds()) / 1e3,
		SweepExperiments: len(selected),
		ExperimentWallMs: perExp,
		KernelProgram:    "matmul(4)",
		KernelPEs:        8,
		KernelRuns:       runs,
		KernelSimCycles:  cycles,
		KernelInstrs:     instrs,
		KernelWallMs:     float64(wall.Microseconds()) / 1e3 / float64(runs),
		McyclesPerSec:    float64(cycles) * float64(runs) / wall.Seconds() / 1e6,
		MinstrPerSec:     float64(instrs) * float64(runs) / wall.Seconds() / 1e6,
		KernelCounters:   kernelCounters,

		SweepWorkers: sweepWorkers,
		SweepScaling: benchSweepScaling(quick),

		CompileMs: float64(compileWall.Microseconds()) / 1e3,

		DirectWorkloads: directRows,
	}
	for _, row := range directRows {
		if row.Program != directHeadline {
			continue
		}
		rep.DirectProgram = row.Program
		rep.DirectRuns = row.DirectRuns
		rep.DirectWallMs = row.DirectWallMs
		rep.DirectMfiringsSec = row.DirectMfiringsSec
		rep.DirectSpeedup = row.Speedup
	}
	if rep.Baselines, err = benchBaselines(runs); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "critique-bench: wrote %s (%.2f Mcycles/s, direct %s %.3f ms/run = %.0fx, compile %.1f ms, sweep %.0f ms)\n",
		path, rep.McyclesPerSec, rep.DirectProgram, rep.DirectWallMs, rep.DirectSpeedup, rep.CompileMs, rep.SweepWallMs)
	return f.Close()
}

// directHeadline names the direct_workloads row the headline direct_*
// fields repeat: the loop workload, where loop circulation collapses
// into native control flow and the backend earns its keep.
const directHeadline = "sumloop(20000)"

// directBench is one row of the direct-vs-TTDA table: the same program
// and argument on the TTDA (8 PEs) and on the direct-execution oracle
// backend.
type directBench struct {
	Program           string  `json:"program"`
	Arg               int64   `json:"arg"`
	TTDARuns          int     `json:"ttda_runs"`
	TTDAWallMs        float64 `json:"ttda_wall_ms_per_run"`
	DirectRuns        int     `json:"direct_runs"`
	DirectWallMs      float64 `json:"direct_wall_ms_per_run"`
	DirectMfiringsSec float64 `json:"direct_mfirings_per_sec"`
	Speedup           float64 `json:"speedup_vs_ttda"`
}

// benchDirect measures the direct backend against the TTDA on three
// workload shapes. Every direct run's results are asserted
// bit-identical to the reference interpreter's, and the firing count
// must match too (the firing multiset of a dataflow graph is
// schedule-invariant). The direct side gets many more reps than the
// simulated side because each run is orders of magnitude shorter.
func benchDirect(quick bool) ([]directBench, error) {
	runs := 10
	if quick {
		runs = 3
	}
	cases := []struct {
		name string
		src  string
		arg  int64
	}{
		{"matmul(4)", workload.MatMulID, 4},
		{directHeadline, workload.SumLoopID, 20000},
		{"fib(18)", workload.FibID, 18},
	}
	rows := make([]directBench, 0, len(cases))
	for _, c := range cases {
		prog, err := id.Compile(c.src)
		if err != nil {
			return nil, err
		}
		tStart := time.Now()
		for i := 0; i < runs; i++ {
			m := core.NewMachine(core.Config{PEs: 8}, prog)
			if _, err := m.Run(1_000_000_000, token.Int(c.arg)); err != nil {
				return nil, err
			}
		}
		tWall := time.Since(tStart)

		it := graph.NewInterp(prog)
		ref, err := it.Run(token.Int(c.arg))
		if err != nil {
			return nil, err
		}
		dRuns := runs * 20
		var dFired uint64
		dStart := time.Now()
		for i := 0; i < dRuns; i++ {
			x := direct.New(prog)
			res, err := x.Run(token.Int(c.arg))
			if err != nil {
				return nil, err
			}
			if len(res) != len(ref) {
				return nil, fmt.Errorf("direct %s returned %d results, interpreter %d", c.name, len(res), len(ref))
			}
			for j := range res {
				if !res[j].Equal(ref[j]) {
					return nil, fmt.Errorf("direct %s result %d = %s, interpreter %s — bit-identity broken", c.name, j, res[j], ref[j])
				}
			}
			if x.Fired() != it.Fired() {
				return nil, fmt.Errorf("direct %s fired %d instructions, interpreter %d", c.name, x.Fired(), it.Fired())
			}
			dFired = x.Fired()
		}
		dWall := time.Since(dStart)

		row := directBench{
			Program:           c.name,
			Arg:               c.arg,
			TTDARuns:          runs,
			TTDAWallMs:        float64(tWall.Microseconds()) / 1e3 / float64(runs),
			DirectRuns:        dRuns,
			DirectWallMs:      float64(dWall.Microseconds()) / 1e3 / float64(dRuns),
			DirectMfiringsSec: float64(dFired) * float64(dRuns) / fmaxf(1e-9, dWall.Seconds()) / 1e6,
		}
		row.Speedup = row.TTDAWallMs / fmaxf(1e-9, row.DirectWallMs)
		rows = append(rows, row)
	}
	return rows, nil
}

// sweepScaleBench is one worker count's wall time on the fixed
// sweep-scaling workload.
type sweepScaleBench struct {
	Workers int     `json:"workers"`
	Seeds   int     `json:"seeds"`
	WallMs  float64 `json:"wall_ms"`
	// SpeedupVs1 is the workers=1 row's wall time divided by this row's.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// benchSweepScaling times the same conformance sweep — every seed an
// independent whole-fleet run — at worker counts 1, 2, 4 on the shared
// sweep runner. The report is identical at every count (the runner's
// determinism contract); only wall time moves.
func benchSweepScaling(quick bool) []sweepScaleBench {
	seeds := 16
	if quick {
		seeds = 6
	}
	var out []sweepScaleBench
	for _, workers := range []int{1, 2, 4} {
		start := time.Now()
		conformance.SweepOpts(seeds, workers)
		wall := float64(time.Since(start).Microseconds()) / 1e3
		b := sweepScaleBench{Workers: workers, Seeds: seeds, WallMs: wall, SpeedupVs1: 1}
		if len(out) > 0 {
			b.SpeedupVs1 = out[0].WallMs / fmaxf(1e-9, wall)
		}
		out = append(out, b)
	}
	return out
}

// jsonResult shadows experiments.Result with a marshalable error field.
type jsonResult struct {
	ID      string           `json:"id"`
	Title   string           `json:"title"`
	Anchor  string           `json:"anchor"`
	Claim   string           `json:"claim"`
	Tables  []*metrics.Table `json:"tables"`
	Finding string           `json:"finding,omitempty"`
	Error   string           `json:"error,omitempty"`
}

func printJSON(results []experiments.Result) {
	out := make([]jsonResult, 0, len(results))
	for _, r := range results {
		jr := jsonResult{ID: r.ID, Title: r.Title, Anchor: r.Anchor,
			Claim: r.Claim, Tables: r.Tables, Finding: r.Finding}
		if r.Err != nil {
			jr.Error = r.Err.Error()
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "critique-bench:", err)
		os.Exit(1)
	}
}

func printMarkdown(r experiments.Result) {
	fmt.Printf("## %s — %s\n\n", r.ID, r.Title)
	fmt.Printf("*Paper anchor:* %s\n\n", r.Anchor)
	fmt.Printf("*Paper claim:* %s\n\n", r.Claim)
	if r.Err != nil {
		fmt.Printf("**ERROR:** %v\n\n", r.Err)
		return
	}
	for _, t := range r.Tables {
		fmt.Println("```")
		fmt.Print(t.String())
		fmt.Println("```")
		fmt.Println()
	}
	fmt.Printf("*Measured:* %s\n\n", r.Finding)
}
