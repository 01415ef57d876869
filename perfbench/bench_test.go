package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestInputsRepeatForSeed checks that a seed fixes every generated input,
// and that another seed changes them.
func TestInputsRepeatForSeed(t *testing.T) {
	args := func(seed uint64) []int64 {
		var out []int64
		for _, p := range kernelInputs(seed) {
			out = append(out, p.arg, p.want, int64(len(p.name)))
		}
		v := newVNFabric(seed).(*vnFabric)
		return append(out, v.cmmpIters, v.ultraIters, v.cmstarIters)
	}
	bodies := func(seed uint64) [][]byte {
		var out [][]byte
		for w := 0; w < 2; w++ {
			rs, err := renderWindow(seed, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				out = append(out, r.body)
			}
		}
		return out
	}
	for _, seed := range []uint64{1, heldOutSeed} {
		if !reflect.DeepEqual(args(seed), args(seed)) {
			t.Errorf("seed %d: simulation inputs differ between generations", seed)
		}
		if !reflect.DeepEqual(bodies(seed), bodies(seed)) {
			t.Errorf("seed %d: serve requests differ between generations", seed)
		}
	}
	if reflect.DeepEqual(bodies(1), bodies(2)) {
		t.Error("seeds 1 and 2 generate the same serve traffic")
	}
	same := true
	for s := uint64(2); s < 10; s++ {
		same = same && reflect.DeepEqual(args(1), args(s))
	}
	if same {
		t.Error("seeds 1..9 all generate the same simulation inputs")
	}
}

// TestWrongAnswerCounts breaks one expected value per checked layer and
// requires the harness to count failures.
func TestWrongAnswerCounts(t *testing.T) {
	k := newTTDAKernel(1).(*ttdaKernel)
	if err := k.setup(nil, 0); err != nil {
		t.Fatal(err)
	}
	k.progs[0].want++
	m := measureFor(k, nil, 50*time.Millisecond, true)
	if m.failed == 0 || errorRate(m) == 0 {
		t.Errorf("ttda-kernel with a wrong expected value: %d of %d failed", m.failed, m.attempted)
	}

	s := newServeMix(1).(*serveMix)
	if err := s.setup(nil, 0); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	r, err := s.block(0)
	if err != nil {
		t.Fatal(err)
	}
	r.want++
	m = measureFor(s, nil, 50*time.Millisecond, true)
	if m.failed == 0 {
		t.Errorf("serve-mix with a wrong expected value: %d of %d failed", m.failed, m.attempted)
	}
}

// TestCountsRepeatExactly runs the simulation workloads twice and requires
// their per-layer counts to match exactly, traced or not.
func TestCountsRepeatExactly(t *testing.T) {
	for _, mk := range []func(uint64) bench{newTTDAKernel, newVNFabric} {
		w := mk(3)
		if err := w.setup(nil, 0); err != nil {
			t.Fatal(err)
		}
		a := measureFor(w, nil, time.Millisecond, true)
		b := measureFor(w, newTracer(), time.Millisecond, true)
		if a.failed+b.failed != 0 {
			t.Fatalf("%T: failures: %v %v", w, a.errs, b.errs)
		}
		if !reflect.DeepEqual(a.layer, b.layer) {
			t.Errorf("%T: counts differ between an untraced and a traced pass:\n%v\n%v", w, a.layer, b.layer)
		}
	}
}

// TestMetricNamesMatchDeclaration runs both modes briefly and requires the
// emitted metric names and units to equal those BENCHMARK.json declares.
func TestMetricNamesMatchDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	want := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, d := range list {
			out = append(out, d.Name+" "+d.Unit)
		}
		sort.Strings(out)
		return out
	}
	got := func(r result) []string {
		var out []string
		for name, v := range r.Metrics {
			out = append(out, name+" "+v.Unit)
		}
		sort.Strings(out)
		return out
	}
	untraced, _ := untracedRun(newTTDAKernel(1), 1)
	if g, w := got(untraced), want(decl.EndToEnd); !reflect.DeepEqual(g, w) {
		t.Errorf("--trace 0 emits\n%v\nBENCHMARK.json declares\n%v", g, w)
	}
	traced, _ := tracedRun(newTTDAKernel(1), newTracer(), 1)
	if g, w := got(traced), want(decl.PerLayer); !reflect.DeepEqual(g, w) {
		t.Errorf("--trace 1 emits\n%v\nBENCHMARK.json declares\n%v", g, w)
	}
}
