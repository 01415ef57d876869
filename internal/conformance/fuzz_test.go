package conformance

import "testing"

// FuzzConformance drives the generator from arbitrary fuzzed seeds and
// runs the cheap core of the oracle set on each: both executable forms
// must compile, and the reference interpreter, the wake-queue vn core,
// the exhaustive vn core, and the pure-Go fold must all agree. Anything
// the fuzzer finds here reproduces with the seed alone.
func FuzzConformance(f *testing.F) {
	for seed := uint64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Add(uint64(1 << 40))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := Generate(seed)
		c, err := compile(w)
		if err != nil {
			t.Fatalf("generated program does not compile: %v (%s)", err, w)
		}
		want := w.Expected()
		got, _, err := runInterp(c)
		if err != nil {
			t.Fatalf("interp: %v (%s)", err, w)
		}
		if got != want {
			t.Fatalf("interp %d, Go fold %d (%s)", got, want, w)
		}
		evented, err := runVN(c, 1, 3, false)
		if err != nil {
			t.Fatalf("vn evented: %v (%s)", err, w)
		}
		exhaustive, err := runVN(c, 1, 3, true)
		if err != nil {
			t.Fatalf("vn exhaustive: %v (%s)", err, w)
		}
		if evented.Result != want {
			t.Fatalf("vn %d, Go fold %d (%s)", evented.Result, want, w)
		}
		if evented.Observables() != exhaustive.Observables() {
			t.Fatalf("engine honesty: evented %+v != exhaustive %+v (%s)", evented, exhaustive, w)
		}
	})
}
