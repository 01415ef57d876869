package istructure

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// HEPModule is the Denelcor-HEP-style contrast to I-structure storage
// (paper footnote 2): cells carry a full/empty bit, but there is no
// deferred read list. A read of an empty cell is NACKed and the requester
// must retry — busy-waiting that consumes both controller and network
// bandwidth. E4 measures that waste against I-structure deferral.
type HEPModule struct {
	base, size uint32
	full       []bool
	values     []interface{}
	respond    func(HEPResponse)

	serviceTime sim.Cycle
	queue       []Request
	busyUntil   sim.Cycle
	stats       HEPStats
}

// HEPResponse reports a read or write outcome; OK=false means the read
// found the cell empty (or, for writes with the synchronizing discipline,
// found it full) and must be retried.
type HEPResponse struct {
	Addr    uint32
	Value   interface{}
	OK      bool
	ReplyTo interface{}
}

// HEPStats aggregates measurements, Retries being the busy-wait traffic.
type HEPStats struct {
	Reads   metrics.Counter
	Writes  metrics.Counter
	Retries metrics.Counter // NACKed reads
	Busy    metrics.Counter
}

// NewHEP returns a full/empty memory serving [base, base+size).
func NewHEP(base, size uint32, serviceTime sim.Cycle, respond func(HEPResponse)) *HEPModule {
	if serviceTime == 0 {
		serviceTime = 1
	}
	return &HEPModule{
		base: base, size: size,
		full:        make([]bool, size),
		values:      make([]interface{}, size),
		respond:     respond,
		serviceTime: serviceTime,
	}
}

// Stats returns the module's measurements.
func (m *HEPModule) Stats() *HEPStats { return &m.stats }

// Enqueue hands a request to the controller.
func (m *HEPModule) Enqueue(r Request) error {
	if r.Addr < m.base || r.Addr >= m.base+m.size {
		return fmt.Errorf("istructure: address %d outside HEP module [%d,%d)", r.Addr, m.base, m.base+m.size)
	}
	m.queue = append(m.queue, r)
	return nil
}

// Idle reports whether the controller has no queued work.
func (m *HEPModule) Idle() bool { return len(m.queue) == 0 }

// NextEvent reports now while the controller is busy or has queued work
// (a busy controller counts a Busy cycle on every step), otherwise
// sim.Never. The module does not wake itself: whoever enqueues into an
// idle module must Wake it.
func (m *HEPModule) NextEvent(now sim.Cycle) sim.Cycle {
	if now < m.busyUntil || len(m.queue) > 0 {
		return now
	}
	return sim.Never
}

// Step advances one cycle, servicing at most one request.
func (m *HEPModule) Step(now sim.Cycle) {
	if now < m.busyUntil {
		m.stats.Busy.Inc()
		return
	}
	if len(m.queue) == 0 {
		return
	}
	r := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.stats.Busy.Inc()
	m.busyUntil = now + m.serviceTime
	i := r.Addr - m.base
	switch r.Op {
	case OpRead:
		m.stats.Reads.Inc()
		if !m.full[i] {
			m.stats.Retries.Inc()
			m.respond(HEPResponse{Addr: r.Addr, OK: false, ReplyTo: r.ReplyTo})
			return
		}
		m.respond(HEPResponse{Addr: r.Addr, Value: m.values[i], OK: true, ReplyTo: r.ReplyTo})
	case OpWrite:
		m.stats.Writes.Inc()
		m.full[i] = true
		m.values[i] = r.Value
	case OpClear:
		m.full[i] = false
		m.values[i] = nil
	}
}
