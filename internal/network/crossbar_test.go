package network

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/sim"
)

// referenceStep is the plain arbiter Crossbar.Step must agree with: it
// walks every output in ascending order and grants the first requester at
// or cyclically after the output's round-robin pointer, whether or not the
// output has any requester.
func referenceStep(c *Crossbar, now sim.Cycle) {
	c.now = now
	for c.inflight.Len() > 0 && c.inflight.Peek().at <= now {
		p := c.inflight.Pop().p
		c.pending--
		c.stats.delivered(p, now)
		c.deliver(p)
	}
	for out := 0; out < c.ports; out++ {
		granted := firstSetFrom(c.reqs[out], c.rr[out])
		if granted < 0 {
			continue
		}
		p := c.in[granted].pop()
		c.syncHead(granted)
		p.Hops = 1
		c.inflight.Push(flight{at: now + c.switchDelay, p: p})
		c.rr[out] = (granted + 1) % c.ports
	}
}

// grant is one arbitration decision, observed at delivery: transit is a
// constant SwitchDelay and in-flight packets leave in grant order, so the
// delivery sequence is the grant sequence shifted by that delay.
type grant struct {
	in, out, seq int
	cycle        sim.Cycle
}

// xbarRun drives one crossbar, recording every grant.
type xbarRun struct {
	x      *Crossbar
	grants []grant
	seq    int
}

func newXbarRun(ports, delay, qcap int) *xbarRun {
	r := &xbarRun{x: NewCrossbar(ports, sim.Cycle(delay), qcap)}
	r.x.SetDelivery(func(p *Packet) {
		r.grants = append(r.grants, grant{p.Src, p.Dst, p.Payload.(int), r.x.now - r.x.switchDelay})
	})
	return r
}

func (r *xbarRun) send(src, dst int) {
	r.x.Send(&Packet{Src: src, Dst: dst, Payload: r.seq})
	r.seq++
}

// checkArbState fails unless the active-output mask agrees with the
// per-output requester bitmasks, and those with the queue heads.
func checkArbState(t *testing.T, c *Crossbar) {
	t.Helper()
	want := make([]int, c.ports)
	for i, q := range c.in {
		if h := q.head(); h != nil {
			want[h.Dst]++
			if c.headDst[i] != h.Dst || c.reqs[h.Dst][i>>6]&(1<<(uint(i)&63)) == 0 {
				t.Fatalf("input %d heads for %d but headDst %d / reqs bit unset", i, h.Dst, c.headDst[i])
			}
		} else if c.headDst[i] != -1 {
			t.Fatalf("empty input %d has headDst %d", i, c.headDst[i])
		}
	}
	for out := 0; out < c.ports; out++ {
		n := requesters(c, out)
		on := c.active[out>>6]&(1<<(uint(out)&63)) != 0
		if n != want[out] || on != (n > 0) {
			t.Fatalf("output %d: %d requesters, reqs has %d, active %v", out, want[out], n, on)
		}
	}
}

// requesters counts the inputs whose head wants out.
func requesters(c *Crossbar, out int) int {
	n := 0
	for _, w := range c.reqs[out] {
		n += bits.OnesCount64(w)
	}
	return n
}

func statsBytes(s *Stats) []byte {
	e := sim.NewEnc()
	s.Save(e)
	return e.Bytes()
}

// compareArbiters plays script through Crossbar.Step and referenceStep on
// two crossbars of the same shape and fails at the first cycle where their
// grants, round-robin pointers or Stats differ. Each cycle consumes one
// count byte and then two bytes (source, destination) per send; a send
// whose source byte has its top bit set is a burst: the source enqueues
// the destination and then dst+1, dst+2, ... so its next head wants a
// later output in the cycle that serves the first.
func compareArbiters(t *testing.T, ports, delay, qcap int, script []byte) {
	t.Helper()
	got, ref := newXbarRun(ports, delay, qcap), newXbarRun(ports, delay, qcap)
	both := func(f func(r *xbarRun)) { f(got); f(ref) }
	pos := 0
	next := func() int {
		b := script[pos]
		pos++
		return int(b)
	}
	now, seen := sim.Cycle(0), 0
	for pos < len(script) || got.x.Pending()+ref.x.Pending() > 0 {
		if now > sim.Cycle(len(script))+sim.Cycle(ports*qcap*delay)+64 {
			t.Fatalf("ports %d: no drain by cycle %d (%d, %d pending)", ports, now, got.x.Pending(), ref.x.Pending())
		}
		if pos < len(script) {
			for n := next() % 8; n > 0 && pos+1 < len(script); n-- {
				s, d := next(), next()
				src, dst := (s&0x7f)%ports, d%ports
				burst := 1
				if s&0x80 != 0 {
					burst = qcap
				}
				for k := 0; k < burst; k++ {
					both(func(r *xbarRun) { r.send(src, (dst+k)%ports) })
				}
			}
		}
		got.x.Step(now)
		referenceStep(ref.x, now)
		checkArbState(t, got.x)
		if !slices.Equal(got.grants[seen:], ref.grants[seen:]) {
			t.Fatalf("ports %d cap %d delay %d, cycle %d: grants\n%v\nwant\n%v", ports, qcap, delay, now, got.grants[seen:], ref.grants[seen:])
		}
		seen = len(got.grants)
		for out := range got.x.rr {
			if got.x.rr[out] != ref.x.rr[out] {
				t.Fatalf("ports %d, cycle %d: rr[%d] = %d, want %d", ports, now, out, got.x.rr[out], ref.x.rr[out])
			}
		}
		if !bytes.Equal(statsBytes(got.x.Stats()), statsBytes(ref.x.Stats())) {
			t.Fatalf("ports %d, cycle %d: Stats differ", ports, now)
		}
		now++
	}
}

// randomScript returns a send script with a hot set of outputs spread
// across every word of the masks, so outputs contend, and with bursts.
func randomScript(rng *sim.RNG, ports, cycles int) []byte {
	hot := []int{0, ports / 2, ports - 1, rng.Intn(ports)}
	var s []byte
	for c := 0; c < cycles; c++ {
		n := rng.Intn(8)
		s = append(s, byte(n))
		for ; n > 0; n-- {
			src := rng.Intn(ports) % 128
			if rng.Bool(0.2) {
				src |= 0x80
			}
			dst := rng.Intn(ports)
			if rng.Bool(0.6) {
				dst = hot[rng.Intn(len(hot))]
			}
			s = append(s, byte(src), byte(dst))
		}
	}
	return s
}

// TestCrossbarArbitrationMatchesReference: random send sequences at port
// counts on both sides of a mask word boundary produce the same grants, in
// the same cycles and order, and the same Stats, as the all-ports arbiter.
func TestCrossbarArbitrationMatchesReference(t *testing.T) {
	for _, ports := range []int{1, 5, 63, 64, 65, 128, 130} {
		for qcap := 1; qcap <= 4; qcap++ {
			for seed := uint64(1); seed <= 6; seed++ {
				rng := sim.NewRNG(seed*1000 + uint64(ports*10+qcap))
				delay := 1 + int(seed%3)
				compareArbiters(t, ports, delay, qcap, randomScript(rng, ports, 300))
			}
		}
	}
}

// TestCrossbarServesNewHeadSameCycle: an input granted at one output whose
// next packet wants a later output is granted there in the same cycle,
// both within a mask word and across one.
func TestCrossbarServesNewHeadSameCycle(t *testing.T) {
	for _, second := range []int{5, 64, 129} {
		r := newXbarRun(130, 1, 4)
		r.send(3, 1)
		r.send(3, second)
		r.x.Step(0)
		r.x.Step(1)
		if len(r.grants) != 2 || r.grants[0].cycle != 0 || r.grants[1].cycle != 0 {
			t.Fatalf("second output %d: grants %v, want both in cycle 0", second, r.grants)
		}
	}
}

// TestCrossbarStepAllocatesNothing: arbitration under steady traffic does
// not allocate.
func TestCrossbarStepAllocatesNothing(t *testing.T) {
	const ports = 65
	x := NewCrossbar(ports, 2, 4)
	x.SetDelivery(func(p *Packet) {
		p.Dst = (p.Dst + 7) % ports
		x.Send(p)
	})
	for i := 0; i < ports; i++ {
		x.Send(&Packet{Src: i, Dst: (i * 3) % 5})
		x.Send(&Packet{Src: i, Dst: 60 + i%5})
	}
	now := sim.Cycle(0)
	step := func() { x.Step(now); now++ }
	for i := 0; i < 1000; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("Step allocates %.2f times per cycle", a)
	}
}

// FuzzCrossbarArbitration runs arbitrary send scripts through Crossbar.Step
// and the all-ports reference arbiter.
func FuzzCrossbarArbitration(f *testing.F) {
	for _, ports := range []uint8{5, 64, 65, 130} {
		f.Add(ports, uint8(2), uint8(1), randomScript(sim.NewRNG(uint64(ports)), int(ports), 40))
	}
	f.Add(uint8(130), uint8(4), uint8(1), []byte{1, 0x83, 1})
	f.Fuzz(func(t *testing.T, ports, qcap, delay uint8, script []byte) {
		if len(script) > 4096 {
			return
		}
		compareArbiters(t, 1+int(ports-1)%130, 1+int(delay)%3, 1+int(qcap)%4, script)
	})
}

// intCodec carries the int payloads the crossbar tests put on packets.
type intCodec struct{}

func (intCodec) Save(e *sim.Enc, v interface{}) { e.Int(v.(int)) }
func (intCodec) Load(d *sim.Dec) interface{}    { return d.Int() }

// TestCrossbarCheckpointRoundTripMidArbitration pauses a run on a cycle
// where several inputs queue for one output and its round-robin pointer
// has moved, restores the checkpoint into a fresh crossbar and into one
// that already carried other traffic, and finishes all three runs: each
// restored one must rebuild the same arbitration state and then make the
// same grants in the same cycles, end on the same cycle, and keep the same
// Stats as the straight run.
func TestCrossbarCheckpointRoundTripMidArbitration(t *testing.T) {
	const ports, qcap, delay = 70, 4, 2
	traffic := func(r *xbarRun, now sim.Cycle) {
		if now < 40 {
			for src := 0; src < ports; src += 3 {
				r.send(src, 66)
			}
			r.send(int(now)%ports, int(now*7)%ports)
		}
	}
	straight := newXbarRun(ports, delay, qcap)
	now := sim.Cycle(0)
	for ; now < 20; now++ {
		traffic(straight, now)
		straight.x.Step(now)
	}
	if n := requesters(straight.x, 66); n < 2 || straight.x.rr[66] == 0 {
		t.Fatalf("pause point not mid-arbitration: %d requesters, rr %d", n, straight.x.rr[66])
	}
	e := sim.NewEnc()
	straight.x.SaveTo(e, intCodec{})

	fresh, reused := newXbarRun(ports, delay, qcap), newXbarRun(ports, delay, qcap)
	for c := sim.Cycle(0); c < 5; c++ {
		for src := 0; src < ports; src++ {
			reused.send(src, src%5)
		}
		reused.x.Step(c)
	}
	if reused.x.active[0] == 0 {
		t.Fatal("reused crossbar has no requesters before the load")
	}
	for _, r := range []*xbarRun{fresh, reused} {
		r.seq, r.grants = straight.seq, nil
		if err := r.x.LoadFrom(sim.NewDec(e.Bytes()), intCodec{}); err != nil {
			t.Fatal(err)
		}
		checkArbState(t, r.x)
		for _, c := range []struct {
			name      string
			got, want interface{}
		}{
			{"reqs", r.x.reqs, straight.x.reqs},
			{"active", r.x.active, straight.x.active},
			{"headDst", r.x.headDst, straight.x.headDst},
			{"rr", r.x.rr, straight.x.rr},
		} {
			if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
				t.Fatalf("restored %s = %v, want %v", c.name, c.got, c.want)
			}
		}
	}

	straight.grants = nil
	for _, r := range []*xbarRun{straight, fresh, reused} {
		for c := now; r.x.Pending() > 0 || c < 40; c++ {
			if c > 1000 {
				t.Fatalf("no drain by cycle %d: %d pending", c, r.x.Pending())
			}
			traffic(r, c)
			r.x.Step(c)
		}
	}
	if len(straight.grants) == 0 {
		t.Fatal("straight run granted nothing after the pause")
	}
	for _, r := range []*xbarRun{fresh, reused} {
		if fmt.Sprint(r.grants) != fmt.Sprint(straight.grants) {
			t.Fatalf("resumed grants\n%v\nwant\n%v", r.grants, straight.grants)
		}
		if r.x.now != straight.x.now {
			t.Fatalf("resumed run ended at cycle %d, straight at %d", r.x.now, straight.x.now)
		}
		if !bytes.Equal(statsBytes(r.x.Stats()), statsBytes(straight.x.Stats())) {
			t.Fatal("resumed Stats differ from the straight run's")
		}
	}
}
