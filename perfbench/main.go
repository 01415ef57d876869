// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the simulator fleet, checks every answer, and
// prints its metrics by name with their units. It drives each layer only
// through that layer's public Go API.
//
//	go run . --workload ttda-kernel --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a run that is half
// untraced and half traced. A stamped copy of the result (and, when traced,
// the spans) is written under .bench_build/results in the working
// directory. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buildinfo"
)

// heldOutSeed is the seed reserved for checking a claimed gain: tune and
// develop on other seeds, then confirm on this one.
const heldOutSeed = 9001

// A run repeats its set-up at least setupRepeats times and for at least
// setupMin, but no more than setupMax times; setup_s is the median, steady
// even when one set-up is short. Set-up spans take operation ids from
// setupOp up, apart from the measured operations'.
const (
	setupRepeats = 5
	setupMax     = 2000
	setupMin     = 250 * time.Millisecond
	setupOp      = 1 << 40
)

// A spreadSetup workload's measured run is cut into setupSlices slices,
// with a burst of at least setupRepeats set-ups lasting at least
// setupBurst between two slices.
const (
	setupSlices = 25
	setupBurst  = 10 * time.Millisecond
)

// spreadSetup marks a workload whose set-up can be repeated between
// operations without changing them. Its set-ups are timed in bursts spread
// over the whole measured run as well as before it, so a set-up of a few
// microseconds sees the host over the same seconds the operations do, not
// over a few milliseconds of it.
type spreadSetup interface{ spreadSetup() }

// bench is one named workload. setup builds everything the timed loop
// needs and may be called several times (the last call's state is kept);
// op names the set-up's spans. run executes operations until the
// deadline, recording into m.
type bench interface {
	setup(tr *tracer, op uint64) error
	run(tr *tracer, until time.Time, m *measure)
}

var workloads = map[string]func(seed uint64) bench{
	"ttda-kernel": newTTDAKernel,
	"vn-fabric":   newVNFabric,
	"serve-mix":   newServeMix,
	"sweep-full":  newSweepFull,
}

// measure collects one measured interval of a workload.
type measure struct {
	// opMs is each operation's latency in milliseconds. On the simulation
	// workloads an operation is a pass over the whole input set, timed in
	// process CPU and normalised to 100k instructions of the equal-weight mix.
	opMs []float64
	// units counts work units done: simulated instructions of the
	// equal-weight mix (ttda-kernel, vn-fabric), requests (serve-mix),
	// experiments of All and the ablations taken together (sweep-full).
	units float64
	ops   int
	wall  float64
	// busy is the time base of throughput: process CPU seconds of the
	// operations on the simulation workloads and sweep-full, wall seconds
	// on serve-mix.
	busy float64
	// simInstr and simCycles total the simulated instructions and cycles
	// of the simulation workloads.
	simInstr, simCycles float64

	attempted, failed int
	errs              []string

	// layer holds per-layer values the workload computes itself (counts
	// from the stats accessors, workload-specific latencies).
	layer map[string]float64
	// programs stamps each program's simulated cycles and instructions.
	programs map[string]float64
	rt       runtimeSample
	// warm marks the warm-up, which is too short for tail percentiles.
	warm bool
}

// allocUnits is what alloc_bytes_per_unit divides by: simulated
// instructions on the simulation workloads, work units elsewhere.
func (m *measure) allocUnits() float64 {
	if m.simInstr > 0 {
		return m.simInstr
	}
	return m.units
}

func newMeasure() *measure {
	return &measure{layer: map[string]float64{}, programs: map[string]float64{}}
}

// addPass records one pass of a simulation workload: its latency on the
// equal-weight mix, and the raw simulated instructions and cycles.
func (m *measure) addPass(mixMs, instr, cycles float64) {
	m.ops++
	m.opMs = append(m.opMs, mixMs)
	m.busy += mixMs / 1e3
	m.units += opUnits
	m.simInstr += instr
	m.simCycles += cycles
}

// mixMs accumulates a pass's process CPU milliseconds normalised to an
// equal-weight mix of opUnits simulated instructions: each of the n
// programs contributes the time it takes to simulate opUnits/n of its own
// instructions. The seed's arguments then change how much each program
// runs, but not how much it weighs.
type mixMs float64

func (x *mixMs) add(cpu time.Duration, instr uint64, n int) {
	*x += mixMs(float64(cpu) / 1e6 * opUnits / float64(n) / float64(instr))
}

// check counts one checked operation; a non-nil err is a failure.
func (m *measure) check(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		if len(m.errs) < 8 {
			m.errs = append(m.errs, err.Error())
		}
	}
}

// measureFor runs w for d and stamps wall time and runtime deltas.
func measureFor(w bench, tr *tracer, d time.Duration, warm bool) *measure {
	return measureSlices(w, tr, d, warm, 1, nil)
}

// measureSlices runs w for d in n equal slices on one measure, calling
// between before every slice but the first. Wall time and runtime deltas
// cover the slices only.
func measureSlices(w bench, tr *tracer, d time.Duration, warm bool, n int, between func()) *measure {
	m := newMeasure()
	m.warm = warm
	for i := 0; i < n; i++ {
		if i > 0 {
			between()
		}
		before := readRuntime()
		start := time.Now()
		w.run(tr, start.Add(d/time.Duration(n)), m)
		m.wall += time.Since(start).Seconds()
		m.rt = m.rt.add(readRuntime().sub(before))
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies the box, toolchain, code and inputs behind a result.
type stamp struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	HeldOutSeed uint64             `json:"held_out_seed"`
	Seconds     int                `json:"seconds"`
	Trace       int                `json:"trace"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	CodeVersion string             `json:"code_version"`
	Programs    map[string]float64 `json:"programs,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
	Result      result             `json:"result"`
}

func main() {
	name := flag.String("workload", "", "workload: ttda-kernel, vn-fabric, serve-mix or sweep-full")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the stamped result and spans")
	flag.Parse()
	if err := benchmark(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(name string, seed uint64, seconds, trace int, outDir string) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	w := mk(seed)
	if c, ok := w.(interface{ close() }); ok {
		defer c.close()
	}
	var res result
	var st stamp
	var tr *tracer
	if trace == 0 {
		res, st = untracedRun(w, seconds)
	} else {
		tr = newTracer()
		res, st = tracedRun(w, tr, seconds)
	}
	st.Workload, st.Seed, st.HeldOutSeed, st.Seconds, st.Trace = name, seed, heldOutSeed, seconds, trace
	st.NumCPU, st.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	st.GoVersion, st.CodeVersion = runtime.Version(), buildinfo.CodeVersion()
	st.Result = res
	if err := writeStamp(outDir, st, tr); err != nil {
		return err
	}
	for _, e := range st.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuSetup marks a workload whose set-up runs work in parallel, as its
// operations do; it is timed in process CPU like them, so the time the
// host takes either CPU away does not count.
type cpuSetup interface{ cpuSetup() }

// setupTimes repeats w's set-up at least n times and for at least min,
// but no more than setupMax times, and returns each set-up's seconds.
func setupTimes(w bench, tr *tracer, n int, min time.Duration) ([]float64, error) {
	clock := func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	if _, ok := w.(cpuSetup); ok {
		clock = processCPU
	}
	var ts []float64
	for start := time.Now(); len(ts) < n || (time.Since(start) < min && len(ts) < setupMax); {
		if c, ok := w.(interface{ close() }); ok {
			c.close() // the previous set-up's teardown is not set-up time
		}
		t := clock()
		if err := w.setup(tr, setupOp+uint64(len(ts))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, (clock() - t).Seconds())
	}
	return ts, nil
}

// warmUp runs the workload briefly so lazy set-up and caches settle
// before timing; its answers are checked like any other.
func warmUp(w bench) *measure { return measureFor(w, nil, 300*time.Millisecond, true) }

func untracedRun(w bench, seconds int) (result, stamp) {
	heap := startHeapWatch()
	setups, err := setupTimes(w, nil, setupRepeats, setupMin)
	if err != nil {
		heap.finish()
		return failedResult(err)
	}
	warm := warmUp(w)
	d := time.Duration(seconds) * time.Second
	var m *measure
	if _, ok := w.(spreadSetup); ok {
		var burstErr error
		m = measureSlices(w, nil, d, false, setupSlices, func() {
			ts, err := setupTimes(w, nil, setupRepeats, setupBurst)
			setups = append(setups, ts...)
			if err != nil && burstErr == nil {
				burstErr = err
			}
		})
		if burstErr != nil {
			m.check(burstErr)
		}
	} else {
		m = measureFor(w, nil, d, false)
	}
	peak := heap.finish()

	e2e := map[string]float64{
		"setup_s":              median(setups),
		"peak_heap_mb":         peak,
		"throughput":           m.units / m.busy,
		"p50_ms":               percentile(m.opMs, 50),
		"p90_ms":               percentile(m.opMs, 90),
		"alloc_bytes_per_unit": float64(m.rt.allocBytes) / m.allocUnits(),
	}
	if !tailOK(len(m.opMs), 90) {
		m.check(fmt.Errorf("only %d operations measured: p90 needs 100", len(m.opMs)))
	}
	return finish(e2e, endToEnd, m, warm)
}

func tracedRun(w bench, tr *tracer, seconds int) (result, stamp) {
	if _, err := setupTimes(w, tr, setupRepeats, setupMin); err != nil {
		return failedResult(err)
	}
	warm := warmUp(w)
	half := time.Duration(seconds) * time.Second / 2
	plain := measureFor(w, nil, half, false)
	traced := measureFor(w, tr, half, false)

	layer := plain.layer
	for k, v := range layerSelfTimes(tr) {
		layer[k] = v
	}
	for k, v := range traced.layer {
		if _, ok := layer[k]; !ok {
			layer[k] = v
		}
	}
	if plain.simInstr > 0 {
		layer["sim_minstr_per_s"] = plain.simInstr / plain.wall / 1e6
		layer["sim_mcycles_per_s"] = plain.simCycles / plain.wall / 1e6
		layer["alloc_bytes_per_instr"] = float64(plain.rt.allocBytes) / plain.simInstr
	}
	per := float64(plain.ops)
	layer["runtime.alloc_bytes"] = float64(plain.rt.allocBytes) / per
	layer["runtime.gc_cycles"] = float64(plain.rt.gcCycles) / per
	layer["runtime.gc_pause_s"] = plain.rt.gcPauseS / per
	layer["trace.overhead_ratio"] = median(traced.opMs)/median(plain.opMs) - 1
	layer["trace.overhead_ms"] = median(traced.opMs) - median(plain.opMs)
	layer["trace.spans"] = float64(tr.count())
	layer["error_rate"] = errorRate(plain, traced, warm)

	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.errs = append(plain.errs, traced.errs...)
	return finish(layer, perLayer, traced, warm)
}

func medianOf(byOp map[uint64]float64) float64 {
	vals := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		vals = append(vals, v)
	}
	return median(vals)
}

func errorRate(ms ...*measure) float64 {
	var a, f int
	for _, m := range ms {
		a += m.attempted
		f += m.failed
	}
	if a == 0 {
		return 1
	}
	return float64(f) / float64(a)
}

// finish fills every declared metric (0 for a layer this workload does
// not drive) and folds the warm-up's checks into the counts.
func finish(values map[string]float64, declared []metricDef, m, warm *measure) (result, stamp) {
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range declared {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	res.Attempted = m.attempted + warm.attempted
	res.Failed = m.failed + warm.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	st := stamp{Programs: m.programs, Errors: append(warm.errs, m.errs...)}
	return res, st
}

func failedResult(err error) (result, stamp) {
	return result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}},
		stamp{Errors: []string{err.Error()}}
}

func writeStamp(dir string, st stamp, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result directory: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", st.Workload, st.Seed, st.Trace))
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if tr != nil {
		return tr.writeTo(base + ".spans.json")
	}
	return nil
}
