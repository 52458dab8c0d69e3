package signal

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Cis returns e^(i*theta) = cos(theta) + i*sin(theta) from one Sincos call.
// It is bit-identical to cmplx.Exp(complex(0, theta)) for every theta:
// that function computes the same Sincos pair and scales both parts by
// math.Exp(0), which is exactly 1.
func Cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// Table-driven MSK synthesis. The modulator's phase accumulator starts at
// zero and adds +step or -step per sample (step = phaseStepPerBit/spb), so
// over messages of bounded length it only ever holds a small set of
// float64 values: 1 455 distinct values across all 96-bit IDs at four
// samples per bit. An mskTable numbers those values as states and stores,
// per state, its successor for each bit value and its precomputed Sincos
// pair. Modulation is then an index walk with two loads per sample.
//
// The table is built from the very same float adds (phase + step, with
// step negated for a '0' bit) and the same Sincos calls as the direct
// loop, so every sample is bit-identical to evaluating Cis(phase) on the
// running accumulator.

// mskTable is an immutable snapshot of the phase-state machine for one
// samples-per-bit value. State 0 is the zero initial phase; next[2*k+b] is
// the state one sample after state k while sending bit b, and re[k], im[k]
// are the cosine and sine of state k's phase. Every walk of at most bits
// bits from state 0 stays on computed entries.
type mskTable struct {
	bits   int
	next   []int32
	re, im []float64
}

// mskBuilder grows the table of one samples-per-bit value. Readers load
// the published snapshot without locking; growth runs under mu and
// publishes a fresh copy, so a snapshot never changes once loaded.
type mskBuilder struct {
	cur atomic.Pointer[mskTable]

	mu       sync.Mutex
	spb      int
	step     float64
	phase    []float64        // phase value of each state
	index    map[uint64]int32 // Float64bits(phase) -> state
	next     []int32          // -1 where the successor is not yet computed
	re, im   []float64
	boundary []bool  // state reached at a bit boundary
	frontier []int32 // boundary states first reached after cur.bits bits
}

// mskRegistry maps samples-per-bit values to their table builders.
type mskRegistry struct {
	builders sync.Map // int -> *mskBuilder
}

// mskTables holds the process-wide MSK phase-state tables.
var mskTables mskRegistry

// table returns a snapshot covering messages of nbits bits at spb samples
// per bit, building or growing it on first need.
func (r *mskRegistry) table(spb, nbits int) *mskTable {
	v, ok := r.builders.Load(spb)
	if !ok {
		v, _ = r.builders.LoadOrStore(spb, &mskBuilder{spb: spb})
	}
	b := v.(*mskBuilder)
	if t := b.cur.Load(); t != nil && t.bits >= nbits {
		return t
	}
	return b.grow(nbits)
}

// grow extends the table to cover nbits-bit messages and publishes it.
// Each newly reached boundary state is expanded once, and each (state,
// bit) successor is computed once, so the total build cost is linear in
// the number of states.
func (b *mskBuilder) grow(nbits int) *mskTable {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.cur.Load()
	if t != nil && t.bits >= nbits {
		return t
	}
	bits := 0
	if t == nil {
		b.step = phaseStepPerBit / float64(b.spb)
		b.index = make(map[uint64]int32)
		b.intern(0)
		b.boundary[0] = true
		b.frontier = []int32{0}
	} else {
		bits = t.bits
	}
	for ; bits < nbits; bits++ {
		var frontier []int32
		for _, k := range b.frontier {
			for bit := int32(0); bit < 2; bit++ {
				step := b.step
				if bit == 0 {
					step = -step
				}
				cur := k
				for s := 0; s < b.spb; s++ {
					nx := b.next[2*cur+bit]
					if nx < 0 {
						nx = b.intern(b.phase[cur] + step)
						b.next[2*cur+bit] = nx
					}
					cur = nx
				}
				if !b.boundary[cur] {
					b.boundary[cur] = true
					frontier = append(frontier, cur)
				}
			}
		}
		b.frontier = frontier
	}
	t = &mskTable{
		bits: nbits,
		next: slices.Clone(b.next),
		re:   slices.Clone(b.re),
		im:   slices.Clone(b.im),
	}
	b.cur.Store(t)
	return t
}

// intern returns the state of a phase value, adding it if new.
func (b *mskBuilder) intern(phase float64) int32 {
	key := math.Float64bits(phase)
	if k, ok := b.index[key]; ok {
		return k
	}
	k := int32(len(b.phase))
	s, c := math.Sincos(phase)
	b.phase = append(b.phase, phase)
	b.re = append(b.re, c)
	b.im = append(b.im, s)
	b.next = append(b.next, -1, -1)
	b.boundary = append(b.boundary, false)
	b.index[key] = k
	return k
}

// modulateInto is ModulateInto over the registry's tables.
func (r *mskRegistry) modulateInto(p *Plane, data []byte, nbits, spb int) {
	p.resize(1 + nbits*spb)
	p.Re[0], p.Im[0] = 1, 0
	if nbits <= 0 || spb <= 0 {
		return
	}
	t := r.table(spb, nbits)
	next, tre, tim := t.next, t.re, t.im
	re, im := p.Re, p.Im[:len(p.Re)]
	st := int32(0)
	n := 1
	for i := 0; i < nbits; i++ {
		bit := int32(data[i/8]>>(7-i%8)) & 1
		for s := 0; s < spb; s++ {
			st = next[2*st+bit]
			re[n], im[n] = tre[st], tim[st]
			n++
		}
	}
}

// Ref is the compact form of a modulated message: per sample, the index of
// its phase state in the MSK table of its samples-per-bit value. The table
// already holds every state's (cos, sin) pair, so a Ref stores two bytes
// per sample where a Plane stores sixteen (770 B instead of 6 160 B for a
// 96-bit ID at four samples per bit), and reading sample k through it
// yields exactly the float64 pair ModulateInto writes. Tags are static
// during a read, so a reader that cancels known tags can keep one Ref per
// ID instead of a full waveform.
type Ref struct {
	t  *mskTable
	st []uint16
}

// Expand writes the reference's samples into p: the same plane
// ModulateInto produces for the message, bit for bit.
func (r *Ref) Expand(p *Plane) {
	p.resize(len(r.st))
	tre, tim := r.t.re, r.t.im
	re, im := p.Re, p.Im[:len(p.Re)]
	for k, s := range r.st {
		re[k], im[k] = tre[s], tim[s]
	}
}

// ModulateIDRef returns the compact reference of a 96-bit tag ID's
// waveform at spb samples per bit (see Ref). It panics if spb's phase
// table has more states than a uint16 can index, which first happens
// between spb 64 and spb 128.
func ModulateIDRef(id tagid.ID, spb int) *Ref {
	return mskTables.modulateRef(id.Bytes(), tagid.Bits, spb)
}

// modulateRef is modulateInto recording state indices instead of samples.
// The pilot is state 0, whose pair is exactly (1, 0).
func (r *mskRegistry) modulateRef(data []byte, nbits, spb int) *Ref {
	t := r.table(spb, nbits)
	if n := len(t.re); n > math.MaxUint16+1 {
		panic(fmt.Sprintf("signal: the MSK table at spb %d has %d phase states, more than a uint16 Ref can index", spb, n))
	}
	st := make([]uint16, 1+nbits*spb)
	next := t.next
	cur := int32(0)
	n := 1
	for i := 0; i < nbits; i++ {
		bit := int32(data[i/8]>>(7-i%8)) & 1
		for s := 0; s < spb; s++ {
			cur = next[2*cur+bit]
			st[n] = uint16(cur)
			n++
		}
	}
	return &Ref{t: t, st: st}
}
