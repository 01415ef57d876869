package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// settleDir runs from the system's current clock (the system's time is
// monotonic, so repeated settles must not restart at cycle 0; settled is
// one past the last stepped cycle).
func settleDir(t *testing.T, s *DirectorySystem, limit int) int {
	t.Helper()
	eng := sim.NewEngine()
	eng.Register(s)
	eng.Advance(s.settled)
	elapsed, ok := eng.Run(func() bool { return !s.Pending() }, sim.Cycle(limit))
	if !ok {
		t.Fatalf("directory system did not settle in %d cycles", limit)
	}
	return int(elapsed)
}

func TestDirectoryReadMissThenHit(t *testing.T) {
	s := NewDirectorySystem(Config{}, 2, 4)
	s.Poke(10, 77)
	var got int64
	s.Request(0, Access{Addr: 10, Done: func(v int64) { got = v }})
	settleDir(t, s, 1000)
	if got != 77 || s.Stats(0).Misses.Value() != 1 {
		t.Fatalf("got %d, misses %d", got, s.Stats(0).Misses.Value())
	}
	s.Request(0, Access{Addr: 10, Done: func(v int64) { got = v }})
	settleDir(t, s, 1000)
	if s.Stats(0).Hits.Value() != 1 {
		t.Fatal("second read must hit")
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	s := NewDirectorySystem(Config{}, 4, 4)
	for cpu := 0; cpu < 4; cpu++ {
		s.Request(cpu, Access{Addr: 5, Done: func(int64) {}})
	}
	settleDir(t, s, 2000)
	s.Request(0, Access{Addr: 5, Write: true, Value: 3, Done: func(int64) {}})
	settleDir(t, s, 2000)
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if s.InvalidationMsgs.Value() != 3 {
		t.Fatalf("invalidation messages = %d, want 3", s.InvalidationMsgs.Value())
	}
	var got int64
	s.Request(2, Access{Addr: 5, Done: func(v int64) { got = v }})
	settleDir(t, s, 2000)
	if got != 3 {
		t.Fatalf("invalidated reader saw %d", got)
	}
}

func TestDirectoryOwnerForwarding(t *testing.T) {
	s := NewDirectorySystem(Config{}, 2, 4)
	s.Request(0, Access{Addr: 7, Write: true, Value: 9, Done: func(int64) {}})
	settleDir(t, s, 2000)
	var got int64
	s.Request(1, Access{Addr: 7, Done: func(v int64) { got = v }})
	settleDir(t, s, 2000)
	if got != 9 {
		t.Fatalf("read from owner = %d", got)
	}
	if s.Stats(0).Writebacks.Value() != 1 {
		t.Fatal("owner must be downgraded with a writeback")
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryInvalidationCostGrowsWithSharers(t *testing.T) {
	// The write latency to a block shared by k caches grows with k: the
	// point-to-point serialization the paper's scaling argument predicts.
	costFor := func(k int) int {
		s := NewDirectorySystem(Config{}, k+1, 4)
		for cpu := 1; cpu <= k; cpu++ {
			s.Request(cpu, Access{Addr: 9, Done: func(int64) {}})
		}
		settleDir(t, s, 100000)
		s.Request(0, Access{Addr: 9, Write: true, Value: 1, Done: func(int64) {}})
		eng := sim.NewEngine()
		eng.Register(s)
		eng.Advance(100000)
		elapsed, ok := eng.Run(func() bool { return !s.Pending() }, 100000)
		if !ok {
			t.Fatal("write did not complete")
		}
		return int(elapsed)
	}
	c2, c16 := costFor(2), costFor(16)
	if c16 <= c2 {
		t.Fatalf("invalidating 16 sharers (%d cycles) must cost more than 2 (%d)", c16, c2)
	}
}

func TestDirectoryPrivateDataScales(t *testing.T) {
	// Unshared traffic does not contend: per-access cost stays flat as
	// processors are added... up to the serialized directory itself.
	costFor := func(p int) float64 {
		s := NewDirectorySystem(Config{}, p, 2)
		const each = 40
		for i := 0; i < each; i++ {
			for cpu := 0; cpu < p; cpu++ {
				s.Request(cpu, Access{Addr: uint32(1000 + cpu*64 + i%4), Write: i%4 == 0, Value: 1})
			}
		}
		cycles := settleDir(t, s, 1_000_000)
		return float64(cycles) / float64(each*p)
	}
	c1, c8 := costFor(1), costFor(8)
	if c8 > c1*4 {
		t.Fatalf("private data should scale: 1p=%.1f 8p=%.1f cycles/access", c1, c8)
	}
}

func TestDirectoryInvariantUnderRandomTraffic(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		s := NewDirectorySystem(Config{Sets: 4, Ways: 2, BlockWords: 2}, 4, 3)
		issued := 0
		var invErr error
		eng := sim.NewEngine()
		// The injector is due every cycle, keeping the rng draw sequence
		// identical to the hand-rolled loop.
		eng.Register(&sim.StepFunc{Fn: func(now sim.Cycle) {
			if issued < 150 && rng.Bool(0.2) {
				s.Request(rng.Intn(4), Access{
					Addr:  uint32(rng.Intn(24)),
					Write: rng.Bool(0.4),
					Value: int64(rng.Intn(100)),
				})
				issued++
			}
		}})
		eng.Register(s)
		eng.Register(&sim.StepFunc{Fn: func(now sim.Cycle) {
			if invErr == nil {
				invErr = s.CheckInvariant()
			}
		}})
		eng.Run(func() bool { return invErr != nil }, 5000)
		return invErr == nil && !s.Pending()
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryLastWriteWins(t *testing.T) {
	s := NewDirectorySystem(Config{}, 4, 3)
	for i := 0; i < 4; i++ {
		s.Request(i, Access{Addr: 11, Write: true, Value: int64(100 + i)})
		settleDir(t, s, 100000)
	}
	var got int64
	s.Request(0, Access{Addr: 11, Done: func(v int64) { got = v }})
	settleDir(t, s, 100000)
	if got != 103 {
		t.Fatalf("read %d, want 103", got)
	}
}
