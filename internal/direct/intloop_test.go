package direct

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestIntLoopTier pins the loop accelerator against the reference
// interpreter: same results, same firing count, same error text (less
// each backend's prefix), and — the part no other test sees — whether
// the int64 tier engaged at all. If the tier silently stopped accepting
// sumloop, every answer would still match and only this test and the
// ≥50x bench floor would notice.
func TestIntLoopTier(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		name   string
		src    string
		arg    token.Value
		budget uint64 // 0: the default
		plan   bool   // a block gets an int plan
	}{
		{"sumloop", workload.SumLoopID, token.Int(1000), 0, true},
		{"div-by-zero-mid-loop", `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + 60 / (5 - i) return s);`, token.Int(8), 0, true},
		{"mod-by-zero-mid-loop", `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + 60 % (3 - i) return s);`, token.Int(8), 0, true},
		{"budget-in-native-loop", workload.SumLoopID, token.Int(1_000_000), 10_000, true},
		// float64(2^53+1) == 2^53, so Eval's i < n + 1 turns false at
		// i = 2^53, one iteration before an int64 comparison would.
		{"compare-beyond-2^53", `def main(n) = (initial i <- n - 3; c <- 0 while i < n + 1 do new i <- i + 1; new c <- c + 1 return c);`, token.Int(big), 0, true},
		{"float-n-falls-back", workload.SumLoopID, token.Float(100), 0, true},
		{"float-loop-no-plan", `def main(n) = (initial s <- 0.0 for i from 1 to n do new s <- s + 0.5 return s);`, token.Int(100), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := id.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			it := graph.NewInterp(prog)
			x := New(prog)
			if tc.budget != 0 {
				it.SetMaxSteps(tc.budget)
				x.SetMaxSteps(tc.budget)
			}
			want, ierr := it.Run(tc.arg)
			got, derr := x.Run(tc.arg)

			plans := 0
			for _, p := range x.lps {
				if p != nil {
					plans++
				}
			}
			if (plans > 0) != tc.plan {
				t.Fatalf("%d blocks got an int plan, want plan=%v", plans, tc.plan)
			}
			if (ierr == nil) != (derr == nil) {
				t.Fatalf("dispositions diverged: interp %v, direct %v", ierr, derr)
			}
			if ierr != nil {
				norm := func(err error) string {
					return strings.TrimPrefix(strings.TrimPrefix(err.Error(), "direct: "), "graph: ")
				}
				if a, b := norm(ierr), norm(derr); a != b {
					t.Fatalf("error text diverged:\n  interp %s\n  direct %s", a, b)
				}
				return
			}
			if len(got) != 1 || got[0] != want[0] {
				t.Fatalf("direct %v, interp %v", got, want)
			}
			if x.Fired() != it.Fired() {
				t.Fatalf("direct fired %d, interp %d", x.Fired(), it.Fired())
			}
		})
	}
}
