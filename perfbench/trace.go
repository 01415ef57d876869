package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function. op groups the spans of one measured operation
// (a pass over the program mix, one serve request, one sweep pass); on
// serve-mix it is the request id every span of that request shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     uint64 `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that costs one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id for end; -1 when tracing is off.
func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: t.now(), Parent: parent, Op: op}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	e := t.now()
	t.mu.Lock()
	t.spans[id].End = e
	t.mu.Unlock()
}

// child records a finished span of total duration d under parent. It
// carries time the benchmark accumulated across many short calls (the
// network's per-cycle Step), where one span per call would dwarf the work.
func (t *tracer) child(name string, parent int, op uint64, d time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Start: p.Start, End: p.Start + int64(d), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// selfByOp returns, for each span name, the self time summed within each
// operation: a span's duration minus the durations of its direct children.
func (t *tracer) selfByOp() map[string]map[uint64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[uint64]float64{}
	for i, s := range t.spans {
		m := out[s.Name]
		if m == nil {
			m = map[uint64]float64{}
			out[s.Name] = m
		}
		m[s.Op] += float64(s.End-s.Start-childNs[i]) / 1e9
	}
	return out
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeTo dumps the spans as JSON; a span's id is its index, which the
// parent field refers to.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// timedNet wraps a fabric handed to core.Config.Net and accumulates the
// host time of its Step and Send calls, and separately the time spent in
// the machine's delivery callback, which runs inside Step. It changes no
// simulated behaviour: every call is forwarded unchanged.
type timedNet struct {
	network.Network
	netNs, deliverNs int64
}

func (n *timedNet) SetDelivery(d network.Delivery) {
	n.Network.SetDelivery(func(p *network.Packet) {
		t := time.Now()
		d(p)
		n.deliverNs += int64(time.Since(t))
	})
}

func (n *timedNet) Send(p *network.Packet) bool {
	t := time.Now()
	ok := n.Network.Send(p)
	n.netNs += int64(time.Since(t))
	return ok
}

func (n *timedNet) Step(now sim.Cycle) {
	t := time.Now()
	n.Network.Step(now)
	n.netNs += int64(time.Since(t))
}
