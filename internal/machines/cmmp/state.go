package cmmp

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vn"
)

// Checkpoint serialization. Requests queued inside banks have had their
// callback re-wrapped by deliver; the wrapper is named by a machine-level
// DoneRef kind that packs the bank, the processor, and the original
// core-context ref, so restore can rebuild the identical reply path.

// doneRefBankReply marks a callback wrapped by deliver: A packs
// bank<<16|cpu, B packs the original core-context ref's core<<32|context.
const doneRefBankReply = vn.DoneRefMachine

// wrapBankReply names the deliver-wrapped callback for a checkpoint. The
// original ref must be a plain core-context ref — in C.mmp every request
// originates at a core — or the wrapper would not fit a DoneRef.
func wrapBankReply(bank, cpu int, orig vn.DoneRef) vn.DoneRef {
	if orig.Kind != vn.DoneRefCoreCtx {
		panic(fmt.Sprintf("cmmp: cannot wrap done ref kind %d", orig.Kind))
	}
	return vn.DoneRef{
		Kind: doneRefBankReply,
		A:    uint32(bank)<<16 | uint32(cpu),
		B:    uint64(orig.A)<<32 | orig.B,
	}
}

// resolver maps checkpoint DoneRefs back to live callbacks: plain
// core-context refs resolve through vn.Resolver; bank-reply wrappers
// rebuild the deliver closure.
func (m *Machine) resolver() vn.DoneResolver {
	cores := vn.Resolver(m.cores)
	return func(ref vn.DoneRef) func(vn.Word) {
		if ref.Kind != doneRefBankReply {
			return cores(ref)
		}
		bank := int(ref.A >> 16)
		cpu := int(ref.A & 0xffff)
		if bank >= m.cfg.Banks || cpu >= m.cfg.Processors {
			return nil
		}
		orig := vn.DoneRef{Kind: vn.DoneRefCoreCtx, A: uint32(ref.B >> 32), B: ref.B & 0xffffffff}
		origDone := cores(orig)
		if origDone == nil {
			return nil
		}
		return m.bankReplyDone(bank, cpu, origDone, orig)
	}
}

// payloadCodec round-trips the *memMsg payloads crossing the crossbar.
type payloadCodec struct {
	m       *Machine
	resolve vn.DoneResolver
}

func (c payloadCodec) Save(e *sim.Enc, v interface{}) {
	msg := v.(*memMsg)
	e.Bool(msg.isReply)
	if msg.isReply {
		e.I64(msg.value)
		vn.SaveDoneRef(e, msg.origRef)
	} else {
		vn.SaveMemRequest(e, msg.req)
	}
}

func (c payloadCodec) Load(d *sim.Dec) interface{} {
	msg := &memMsg{}
	if d.Bool() {
		msg.isReply = true
		msg.value = d.I64()
		msg.origRef = vn.LoadDoneRef(d)
		msg.origDone = vn.MustResolve(d, c.resolve, msg.origRef)
	} else {
		msg.req = vn.LoadMemRequest(d, c.resolve)
	}
	return msg
}

// SaveState appends the whole machine's dynamic state (sim.Stateful).
func (m *Machine) SaveState(e *sim.Enc) {
	e.Tag("cmmp", 1)
	m.engine.SaveState(e)
	pc := payloadCodec{m: m}
	m.retry.SaveTo(e, pc)
	m.xbar.SaveTo(e, pc)
	e.Len(len(m.banks))
	for _, b := range m.banks {
		b.SaveTo(e)
	}
	e.Len(len(m.cores))
	for _, c := range m.cores {
		c.SaveState(e)
	}
}

// LoadState restores the machine (sim.Stateful).
func (m *Machine) LoadState(d *sim.Dec) error {
	if err := d.Tag("cmmp", 1); err != nil {
		return err
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	resolve := m.resolver()
	pc := payloadCodec{m: m, resolve: resolve}
	if err := m.retry.LoadFrom(d, pc); err != nil {
		return err
	}
	if err := m.xbar.LoadFrom(d, pc); err != nil {
		return err
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.banks) {
		d.Failf("checkpoint has %d banks, machine has %d", n, len(m.banks))
		return d.Err()
	}
	for _, b := range m.banks {
		if err := b.LoadFrom(d, resolve); err != nil {
			return err
		}
	}
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.cores) {
		d.Failf("checkpoint has %d cores, machine has %d", n, len(m.cores))
		return d.Err()
	}
	for _, c := range m.cores {
		if err := c.LoadState(d); err != nil {
			return err
		}
	}
	return d.Err()
}

var _ sim.Stateful = (*Machine)(nil)
