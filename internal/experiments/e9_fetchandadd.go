package experiments

import (
	"fmt"

	"repro/internal/machines/ultra"
	"repro/internal/metrics"
	"repro/internal/vn"
	"repro/internal/workload"
)

// E9FetchAndAdd reproduces the Section 1.2.3 discussion of the NYU
// Ultracomputer: switch-level combining removes the hot-spot serial
// bottleneck of FETCH-AND-ADD at the memory module, and the price is
// adder hardware and decombine state in every switch — "one memory
// reference may involve as many as log2 n additions".
func E9FetchAndAdd(opt Options) Result {
	r := Result{
		ID:     "E9",
		Title:  "Ultracomputer: FETCH-AND-ADD combining vs hot spots",
		Anchor: "Section 1.2.3",
		Claim:  "combining serializes correctly while relieving the memory module; the cost moves into the switches",
	}
	logs := pick(opt, []int{2, 3, 4, 5, 6}, []int{2, 4})

	var plainC, combC, hotPlain, hotComb, ops metrics.Series
	plainC.Name = "cycles plain"
	combC.Name = "cycles combining"
	hotPlain.Name = "hot-bank reqs plain"
	hotComb.Name = "hot-bank reqs comb"
	ops.Name = "switch additions"

	run := func(logP int, combining bool) (cycles uint64, hot uint64, combineOps uint64, err error) {
		prog, err := vn.Assemble(workload.HotspotASM)
		if err != nil {
			return 0, 0, 0, err
		}
		m := ultra.New(ultra.Config{LogProcessors: logP, Combining: combining}, prog)
		n := m.NumProcessors()
		for p := 0; p < n; p++ {
			m.Core(p).Context(0).SetReg(4, vn.Word(1000+p))
		}
		c, err := m.Run(20_000_000)
		if err != nil {
			return 0, 0, 0, err
		}
		if got := m.Peek(0); got != vn.Word(n) {
			return 0, 0, 0, fmt.Errorf("E9: hot cell = %d, want %d", got, n)
		}
		seen := map[vn.Word]bool{}
		for p := 0; p < n; p++ {
			v := m.Peek(uint32(1000 + p))
			if v < 0 || v >= vn.Word(n) || seen[v] {
				return 0, 0, 0, fmt.Errorf("E9: tickets not a permutation")
			}
			seen[v] = true
		}
		return uint64(c), m.BankServed(0), m.Network().CombineOps.Value(), nil
	}

	for _, lg := range logs {
		pc, ph, _, err := run(lg, false)
		if err != nil {
			r.Err = err
			return r
		}
		cc, ch, co, err := run(lg, true)
		if err != nil {
			r.Err = err
			return r
		}
		x := float64(int(1) << lg)
		plainC.Add(x, float64(pc))
		combC.Add(x, float64(cc))
		hotPlain.Add(x, float64(ph))
		hotComb.Add(x, float64(ch))
		ops.Add(x, float64(co))
	}
	r.Tables = append(r.Tables, metrics.SeriesTable(
		"E9: n-way FETCH-AND-ADD burst at one cell (every value fetched exactly once)",
		"processors", plainC, combC, hotPlain, hotComb, ops))
	last := len(logs) - 1
	n := 1 << logs[last]
	r.Finding = fmt.Sprintf(
		"without combining the hot module serves all %d requests and the burst time grows linearly; with combining it serves %.0f and the time flattens — at the price of %.0f switch additions plus decombine state",
		n, hotComb.Points[last].Y, ops.Points[last].Y)
	return r
}
