package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// settle runs the system on a fresh engine until no request is pending.
func settle(t *testing.T, s *System, limit int) int {
	t.Helper()
	eng := sim.NewEngine()
	eng.Register(s)
	elapsed, ok := eng.Run(func() bool { return !s.Pending() }, sim.Cycle(limit))
	if !ok {
		t.Fatalf("cache system did not settle in %d cycles", limit)
	}
	return int(elapsed)
}

func TestReadMissThenHit(t *testing.T) {
	s := NewSystem(Config{}, 1)
	s.Poke(100, 7)
	var got int64
	s.Request(0, Access{Addr: 100, Done: func(v int64) { got = v }})
	settle(t, s, 1000)
	if got != 7 {
		t.Fatalf("read = %d", got)
	}
	if s.Stats(0).Misses.Value() != 1 {
		t.Fatal("first access must miss")
	}
	s.Request(0, Access{Addr: 100, Done: func(v int64) { got = v }})
	settle(t, s, 1000)
	if s.Stats(0).Hits.Value() != 1 {
		t.Fatal("second access must hit")
	}
}

func TestSpatialLocalityWithinBlock(t *testing.T) {
	s := NewSystem(Config{BlockWords: 4}, 1)
	for a := uint32(0); a < 4; a++ {
		s.Request(0, Access{Addr: a, Done: func(int64) {}})
	}
	settle(t, s, 1000)
	if s.Stats(0).Misses.Value() != 1 || s.Stats(0).Hits.Value() != 3 {
		t.Fatalf("block locality: %d misses, %d hits",
			s.Stats(0).Misses.Value(), s.Stats(0).Hits.Value())
	}
}

func TestWriteInvalidatesOtherCopies(t *testing.T) {
	// The Censier-Feautrier requirement: a write to x must invalidate all
	// other cached copies of x.
	s := NewSystem(Config{}, 3)
	for cpu := 0; cpu < 3; cpu++ {
		s.Request(cpu, Access{Addr: 50, Done: func(int64) {}})
	}
	settle(t, s, 1000)
	s.Request(0, Access{Addr: 50, Write: true, Value: 9, Done: func(int64) {}})
	settle(t, s, 1000)
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if s.TotalInvalidations() != 2 {
		t.Fatalf("invalidations = %d, want 2", s.TotalInvalidations())
	}
	// Readers must now miss and see the new value.
	var got int64
	s.Request(1, Access{Addr: 50, Done: func(v int64) { got = v }})
	settle(t, s, 1000)
	if got != 9 {
		t.Fatalf("reader saw %d, want 9", got)
	}
	if s.Stats(1).Misses.Value() != 2 {
		t.Fatalf("invalidated reader must re-miss: %d misses", s.Stats(1).Misses.Value())
	}
}

func TestUpgradeCountsSeparately(t *testing.T) {
	s := NewSystem(Config{}, 2)
	s.Request(0, Access{Addr: 10, Done: func(int64) {}})
	s.Request(1, Access{Addr: 10, Done: func(int64) {}})
	settle(t, s, 1000)
	s.Request(0, Access{Addr: 10, Write: true, Value: 1, Done: func(int64) {}})
	settle(t, s, 1000)
	if s.Stats(0).Upgrades.Value() != 1 {
		t.Fatalf("S→M must count as upgrade, got %d", s.Stats(0).Upgrades.Value())
	}
	if s.Stats(1).Invalidations.Value() != 1 {
		t.Fatal("peer copy must be invalidated on upgrade")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	// 1 set, 1 way: the second block evicts the first; a dirty line must
	// write back.
	s := NewSystem(Config{Sets: 1, Ways: 1, BlockWords: 1}, 1)
	s.Request(0, Access{Addr: 0, Write: true, Value: 5, Done: func(int64) {}})
	settle(t, s, 1000)
	s.Request(0, Access{Addr: 1, Done: func(int64) {}})
	settle(t, s, 1000)
	if s.Stats(0).Writebacks.Value() != 1 {
		t.Fatalf("writebacks = %d, want 1", s.Stats(0).Writebacks.Value())
	}
	var got int64
	s.Request(0, Access{Addr: 0, Done: func(v int64) { got = v }})
	settle(t, s, 1000)
	if got != 5 {
		t.Fatalf("evicted dirty data lost: %d", got)
	}
}

func TestPingPongSharingCostsBusTransactions(t *testing.T) {
	// Two processors alternately writing one cell ping-pong the line: every
	// write needs the bus, unlike private data which hits after the first.
	shared := NewSystem(Config{}, 2)
	for i := 0; i < 20; i++ {
		cpu := i % 2
		shared.Request(cpu, Access{Addr: 7, Write: true, Value: int64(i), Done: func(int64) {}})
		settle(t, shared, 10000)
	}
	private := NewSystem(Config{}, 2)
	for i := 0; i < 20; i++ {
		cpu := i % 2
		private.Request(cpu, Access{Addr: uint32(7 + cpu*1000), Write: true, Value: int64(i), Done: func(int64) {}})
		settle(t, private, 10000)
	}
	if shared.BusTransactions.Value() <= 2*private.BusTransactions.Value() {
		t.Fatalf("ping-pong sharing should dominate bus traffic: shared=%d private=%d",
			shared.BusTransactions.Value(), private.BusTransactions.Value())
	}
	if err := shared.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceSerializesSharedWrites(t *testing.T) {
	// More sharers make the same per-processor write workload slower: the
	// serialization cost the paper predicts.
	cyclesFor := func(p int) int {
		s := NewSystem(Config{}, p)
		// every processor writes the same cell 10 times
		for round := 0; round < 10; round++ {
			for cpu := 0; cpu < p; cpu++ {
				s.Request(cpu, Access{Addr: 3, Write: true, Value: 1, Done: func(int64) {}})
			}
		}
		return settle(t, s, 1_000_000)
	}
	c2, c8 := cyclesFor(2), cyclesFor(8)
	if c8 <= c2*2 {
		t.Fatalf("8 sharers (%d cycles) should cost far more than 2 (%d cycles)", c8, c2)
	}
}

func TestLastWriteWins(t *testing.T) {
	// Sequential writes from different processors: a final read sees the
	// last committed value.
	s := NewSystem(Config{}, 4)
	for i := 0; i < 4; i++ {
		s.Request(i, Access{Addr: 11, Write: true, Value: int64(100 + i), Done: func(int64) {}})
		settle(t, s, 10000)
	}
	var got int64
	s.Request(0, Access{Addr: 11, Done: func(v int64) { got = v }})
	settle(t, s, 10000)
	if got != 103 {
		t.Fatalf("read %d, want 103", got)
	}
}

func TestInvariantHoldsUnderRandomTraffic(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		s := NewSystem(Config{Sets: 4, Ways: 2, BlockWords: 2}, 4)
		issued := 0
		var invErr error
		eng := sim.NewEngine()
		// The injector is due every cycle, so the rng draw sequence is
		// identical to the hand-rolled loop this replaces.
		eng.Register(&sim.StepFunc{Fn: func(now sim.Cycle) {
			if issued < 200 && rng.Bool(0.3) {
				cpu := rng.Intn(4)
				s.Request(cpu, Access{
					Addr:  uint32(rng.Intn(32)),
					Write: rng.Bool(0.5),
					Value: int64(rng.Intn(1000)),
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
		eng.Run(func() bool { return invErr != nil }, 3000)
		return invErr == nil
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateStat(t *testing.T) {
	s := NewSystem(Config{}, 1)
	s.Request(0, Access{Addr: 0, Done: func(int64) {}})
	settle(t, s, 100)
	s.Request(0, Access{Addr: 0, Done: func(int64) {}})
	settle(t, s, 100)
	if mr := s.Stats(0).MissRate(); mr != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", mr)
	}
}
