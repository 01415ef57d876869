package sim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the checkpoint layer of the simulation kernel: a small,
// versioned, deterministic binary codec (Enc/Dec), the Stateful contract
// every engine and machine implements, and the Checkpoint/Restore helpers
// that frame a whole-machine snapshot.
//
// Format rules (DESIGN.md §11):
//
//   - Everything is fixed-width little-endian; floats travel as their IEEE
//     bit patterns (math.Float64bits), never as text.
//   - Collections are length-prefixed; map contents are written in sorted
//     key order. Iteration order never reaches the wire.
//   - Encoding is canonical: encode → decode → encode is byte-identical.
//   - Decoding never panics. Dec carries a sticky error; every length is
//     validated against the remaining input before allocation.
//   - Static structure (programs, configurations, topology) is NOT
//     serialized: a checkpoint restores into a freshly constructed machine
//     of the identical configuration, and carries only a fingerprint to
//     detect mismatches. Host-side pools, free lists, and caches are
//     likewise rebuilt, not restored.

// Stateful is the checkpoint contract: SaveState appends the component's
// complete dynamic state to enc; LoadState restores it from dec into a
// freshly constructed component of the identical static configuration.
// After LoadState, the component's observable behaviour must be
// bit-identical to the original from the snapshot cycle onward.
type Stateful interface {
	SaveState(enc *Enc)
	LoadState(dec *Dec) error
}

// Enc is the append-only checkpoint encoder. The zero value is not ready;
// use NewEnc.
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 1024)} }

// Bytes returns the encoded stream.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a fixed-width little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a two's-complement int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends a 0/1 byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends the IEEE-754 bit pattern of v.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Cycle appends a simulated-time point.
func (e *Enc) Cycle(c Cycle) { e.U64(uint64(c)) }

// Len appends a collection length prefix.
func (e *Enc) Len(n int) { e.U32(uint32(n)) }

// String appends a length-prefixed UTF-8 string.
func (e *Enc) String(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Tag opens a named, versioned section. Dec.Tag verifies both, so a
// truncated or reordered stream fails with a precise location instead of
// misinterpreting bytes.
func (e *Enc) Tag(name string, version uint32) {
	e.String(name)
	e.U32(version)
}

// Dec is the checkpoint decoder. Errors are sticky: after the first
// failure every read returns a zero value and Err reports the failure.
// Dec never panics on malformed input.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Err reports the first decoding failure, if any.
func (d *Dec) Err() error { return d.err }

// Failf records a decoding failure (used by callers validating decoded
// values); the first failure wins.
func (d *Dec) Failf(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: "+format+" (offset %d)", append(args, d.off)...)
	}
}

// Finish reports the sticky error, or an error if input remains.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// Remaining reports the undecoded byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.Failf("truncated: need %d bytes, have %d", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a two's-complement int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Dec) Int() int { return int(d.I64()) }

// Bool reads a 0/1 byte; any other value is an error.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Failf("invalid bool byte")
		return false
	}
}

// F64 reads an IEEE-754 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Cycle reads a simulated-time point.
func (d *Dec) Cycle() Cycle { return Cycle(d.U64()) }

// Len reads a collection length prefix and validates it against max and
// the remaining input (each element needs at least one byte), so corrupt
// lengths fail instead of triggering huge allocations.
func (d *Dec) Len(max int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n > max {
		d.Failf("length %d exceeds bound %d", n, max)
		return 0
	}
	if n > len(d.buf)-d.off {
		d.Failf("length %d exceeds remaining input %d", n, len(d.buf)-d.off)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Len(len(d.buf))
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Tag verifies a section header written by Enc.Tag.
func (d *Dec) Tag(name string, version uint32) error {
	got := d.String()
	v := d.U32()
	if d.err != nil {
		return d.err
	}
	if got != name {
		d.Failf("section %q, want %q", got, name)
		return d.err
	}
	if v != version {
		d.Failf("section %q version %d, want %d", name, v, version)
		return d.err
	}
	return nil
}

// --- whole-machine framing -------------------------------------------

// ckptMagic and ckptVersion frame every checkpoint produced by
// Checkpoint. Bump ckptVersion on any incompatible format change; old
// checkpoints then fail with a version error instead of misdecoding.
const (
	ckptMagic   = "SIMCKPT"
	ckptVersion = 1
)

// Checkpoint serializes a machine (including its engine, which the
// machine's SaveState must cover) into a framed, versioned byte stream.
func Checkpoint(m Stateful) []byte {
	e := NewEnc()
	e.String(ckptMagic)
	e.U32(ckptVersion)
	m.SaveState(e)
	return e.Bytes()
}

// Restore loads a Checkpoint stream into a freshly constructed machine of
// the identical configuration. On error the machine must be discarded:
// partially loaded state is not rolled back.
func Restore(m Stateful, data []byte) error {
	d := NewDec(data)
	if magic := d.String(); d.Err() == nil && magic != ckptMagic {
		return fmt.Errorf("checkpoint: bad magic %q", magic)
	}
	if v := d.U32(); d.Err() == nil && v != ckptVersion {
		return fmt.Errorf("checkpoint: format version %d, want %d", v, ckptVersion)
	}
	if d.Err() != nil {
		return d.Err()
	}
	if err := m.LoadState(d); err != nil {
		return err
	}
	return d.Finish()
}

// --- FIFO serialization ----------------------------------------------

// SaveFIFO writes q's elements in queue order using elem for each.
func SaveFIFO[T any](e *Enc, q *FIFO[T], elem func(*Enc, T)) {
	e.Len(q.Len())
	for i := 0; i < q.Len(); i++ {
		elem(e, q.At(i))
	}
}

// LoadFIFO replaces q's contents with elements decoded by elem; max
// bounds the element count against corrupt input.
func LoadFIFO[T any](d *Dec, q *FIFO[T], max int, elem func(*Dec) T) error {
	*q = FIFO[T]{}
	n := d.Len(max)
	for i := 0; i < n && d.Err() == nil; i++ {
		q.Push(elem(d))
	}
	return d.Err()
}

// SaveU32Map writes m in sorted key order — map iteration order must
// never reach the wire.
func SaveU32Map[V any](e *Enc, m map[uint32]V, val func(*Enc, V)) {
	keys := make([]uint32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortU32(keys)
	e.Len(len(m))
	for _, k := range keys {
		e.U32(k)
		val(e, m[k])
	}
}

// LoadU32Map replaces m's contents from the stream.
func LoadU32Map[V any](d *Dec, m map[uint32]V, val func(*Dec) V) error {
	for k := range m {
		delete(m, k)
	}
	n := d.Len(d.Remaining())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.U32()
		m[k] = val(d)
	}
	return d.Err()
}

// sortU32 sorts keys ascending (insertion-free pdq via simple quicksort
// would be overkill; collections here are small, so shell sort suffices
// and avoids importing sort for a hot-free path).
func sortU32(keys []uint32) {
	for gap := len(keys) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(keys); i++ {
			k := keys[i]
			j := i
			for ; j >= gap && keys[j-gap] > k; j -= gap {
				keys[j] = keys[j-gap]
			}
			keys[j] = k
		}
	}
}

// --- engine state -----------------------------------------------------

// saveWakeQueue writes each component's armed state in index order —
// canonical regardless of the heap's internal array layout.
func saveWakeQueue(e *Enc, wake []Cycle, pos []int) {
	e.Len(len(wake))
	for i := range wake {
		armed := pos[i] >= 0
		e.Bool(armed)
		if armed {
			e.Cycle(wake[i])
		}
	}
}

// SaveState implements Stateful. The engine must be between ticks (it
// always is from Run's perspective: checkpoints are taken after Run
// returns at a pause cycle) and must not be stepping every cycle: that
// reference schedule has no wake queue to save.
func (e *Engine) SaveState(enc *Enc) {
	if e.stepping >= 0 || len(e.due) > 0 {
		panic("sim: Engine.SaveState mid-tick")
	}
	if e.everyCycle {
		panic("sim: Engine.SaveState under StepEveryCycle")
	}
	enc.Tag("engine", 2)
	enc.Cycle(e.now)
	enc.Cycle(e.prevTick)
	enc.Cycle(e.stride)
	enc.Cycle(e.busyHorizon)
	enc.Cycle(e.gridAnchor)
	enc.U64(e.stepsExecuted)
	enc.U64(e.cyclesSkipped)
	enc.U64(e.wakesEnqueued)
	saveWakeQueue(enc, e.wake, e.pos)
}

// LoadState implements Stateful. The engine must carry the identical
// component registration as the one that saved; a mismatch is an error.
// After a successful load the next Run resumes exactly where the saved
// run paused (no blanket re-arm, idle-jump executed before the first
// tick), keeping every scheduling counter bit-identical to an
// uninterrupted run.
func (e *Engine) LoadState(d *Dec) error {
	if err := d.Tag("engine", 2); err != nil {
		return err
	}
	now, prevTick, stride := d.Cycle(), d.Cycle(), d.Cycle()
	busyHorizon, gridAnchor := d.Cycle(), d.Cycle()
	steps, skipped, wakes := d.U64(), d.U64(), d.U64()
	if d.Err() == nil && stride < 1 {
		d.Failf("engine stride %d < 1", stride)
	}
	if d.Err() != nil {
		return d.Err()
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(e.components) {
		return fmt.Errorf("checkpoint: %d components, machine has %d", n, len(e.components))
	}
	e.now, e.prevTick, e.stride = now, prevTick, stride
	e.busyHorizon, e.gridAnchor = busyHorizon, gridAnchor
	e.stepsExecuted, e.cyclesSkipped, e.wakesEnqueued = steps, skipped, wakes
	e.fheap = e.fheap[:0]
	for i := range e.components {
		e.pos[i] = -1
		e.wake[i] = Never
		e.inDue[i] = false
	}
	e.due = e.due[:0]
	e.stepping = -1
	for i := 0; i < n; i++ {
		if d.Bool() {
			at := d.Cycle()
			if d.Err() != nil {
				return d.Err()
			}
			// A component re-armed during the final tick (NextEvent == the
			// tick cycle) legitimately sits one tick below now, so the
			// bound is prevTick, and insertion must bypass arm's clamp to
			// keep the restored heap byte-identical on re-save.
			if at < e.prevTick {
				return fmt.Errorf("checkpoint: component %d armed at %d before tick %d", i, at, e.prevTick)
			}
			e.wake[i] = at
			e.pos[i] = len(e.fheap)
			e.fheap = append(e.fheap, i)
			e.heapUp(len(e.fheap) - 1)
		}
	}
	if d.Err() != nil {
		return d.Err()
	}
	e.resumePending = true
	return nil
}

var _ Stateful = (*Engine)(nil)
