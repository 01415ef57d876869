package id

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/token"
)

// FuzzCompiledEquivalence is the differential fuzz target for the
// compiler's optional rewrite passes: any MiniID program that compiles
// must give the same answer on the cycle-accurate machine whether it runs
// the plain plan or a plan rewritten by constant folding and dead-arc
// elimination. The passes may change the timing, never the answer.
func FuzzCompiledEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(3))
	}
	f.Add("def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i * i return s);", int64(6))
	f.Add("def f(x) = if x < 2 then 1 else x * f(x - 1);\ndef main(n) = f(n);", int64(5))
	f.Add("def main(n) = { a = array(n + 1); a[0] <- 2 + 3 * 4; a[0] + (7 - 7) };", int64(2))
	f.Fuzz(func(t *testing.T, src string, n int64) {
		n &= 7 // keep runs tiny: the machine is cycle-accurate
		prog, err := Compile(src)
		if err != nil {
			return
		}
		var ints []token.Value
		for range prog.Entry().Entries {
			ints = append(ints, token.Int(n))
		}
		args, err := EntryArgs(prog, ints)
		if err != nil {
			return
		}

		type run struct {
			ok   bool
			vals string
			sum  core.Summary
		}
		// The cycle budget is deliberately small: fuzz programs are tiny,
		// and a generated infinite recursion must exhaust it inside the
		// fuzzer's per-input deadline.
		exec := func(m *core.Machine) run {
			res, err := m.Run(200_000, args...)
			if err != nil {
				return run{}
			}
			return run{ok: true, vals: stringify(res), sum: m.Summarize()}
		}

		plain := exec(core.NewMachine(core.Config{PEs: 3, NetLatency: 3}, prog))

		// Rewrite passes refuse to compile programs whose folded constants
		// fault.
		plan, err := graph.Compile(prog, graph.WithConstantFolding(), graph.WithDeadArcElimination())
		if err != nil {
			return
		}
		optimized := exec(core.NewMachineWithPlan(core.Config{PEs: 3, NetLatency: 3}, plan))
		if plain.ok && (!optimized.ok || optimized.vals != plain.vals) {
			t.Fatalf("rewrite passes changed the answer: %+v -> %+v\nprogram:\n%s", plain, optimized, src)
		}
	})
}

func stringify(vals []token.Value) string {
	s := ""
	for _, v := range vals {
		s += v.String() + ";"
	}
	return s
}
