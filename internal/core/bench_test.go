package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

// benchRun drives one full matmul(4) run on 8 PEs — the kernel point the
// bench harness (cmd/critique-bench) reports mcycles_per_sec for. newM
// builds each run's machine: from the program (compiled inside Run) or
// from a plan compiled once up front.
func benchRun(b *testing.B, newM func() *Machine) {
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newM()
		if _, err := m.Run(500_000_000, token.Int(4)); err != nil {
			b.Fatal(err)
		}
		cycles += uint64(m.Now())
	}
	b.StopTimer()
	if b.N > 0 {
		perRun := float64(cycles) / float64(b.N)
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(perRun/secs/1e6, "mcycles/s")
	}
}

func benchProgram(b *testing.B) *graph.Program {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkMatMul4(b *testing.B) {
	prog := benchProgram(b)
	benchRun(b, func() *Machine { return NewMachine(Config{PEs: 8}, prog) })
}

func BenchmarkMatMul4Plan(b *testing.B) {
	plan, err := graph.Compile(benchProgram(b))
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, func() *Machine { return NewMachineWithPlan(Config{PEs: 8}, plan) })
}
