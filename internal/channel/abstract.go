package channel

import (
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// AbstractConfig parameterises the paper's slot-level channel model.
type AbstractConfig struct {
	// Lambda is the largest collision multiplicity the ANC decoder can
	// resolve (paper: lambda = 2 with today's method; 3 and 4 studied as
	// future improvements). Must be >= 1; a k-collision record with
	// k > Lambda never resolves.
	Lambda int

	// PUnresolvable is the probability that an otherwise-resolvable
	// collision record is spoiled by noise or channel variation and never
	// resolves (Section IV-E). Zero reproduces the paper's main results.
	PUnresolvable float64

	// PCorruptSingleton is the probability that a lone transmission is
	// corrupted in flight: its CRC fails, so the reader records it as an
	// (unresolvable) collision and the tag retries later, exactly the
	// retransmit-until-acknowledged behaviour of Section IV-E.
	PCorruptSingleton float64

	// Capability is the power-aware decode model layered over the slot
	// channel. Its MaxOrder, when set, overrides Lambda; its capture
	// threshold, when positive, lets the strongest constituent of a
	// collision decode through (Kind Captured). The zero value is the
	// degenerate capture-free capability: behaviour — including the RNG
	// draw sequence — is bit-identical to a config that predates the field.
	Capability Capability
}

// Abstract is the slot-level channel used by the paper's evaluation.
//
// Collision records are block-allocated: record headers come from a chunked
// arena owned by the channel and member lists are carved out of shared
// backing arrays, so a collision slot costs amortised fractions of an
// allocation instead of a map plus header each. Records stay alive until
// the run ends (the record store may revisit them at any time); the arena
// simply stops handing out their storage for reuse.
type Abstract struct {
	cfg AbstractConfig
	rng *rng.Source

	// recs is the current record-header chunk. Chunks are never grown in
	// place (only replaced when full), so *abstractMixed pointers handed to
	// the reader stay valid for the whole run.
	recs []abstractMixed
	// memberPool is the current backing chunk for small member lists.
	memberPool []tagid.ID

	// usedRecs/usedPools retain filled chunks so Reset can rewind the
	// arena for the next repetition instead of reallocating it; spareRecs/
	// sparePools hold rewound chunks awaiting reuse.
	usedRecs   [][]abstractMixed
	spareRecs  [][]abstractMixed
	usedPools  [][]tagid.ID
	sparePools [][]tagid.ID

	// free holds records released through ReleaseMixed, recycled —
	// headers, member storage, big-record index maps — by the next
	// collision instead of growing the arena.
	free []*abstractMixed

	// Capture-decision constants, precomputed so the per-slot test is pure
	// float arithmetic: the linear SINR threshold (0 = capture off) and the
	// reader noise floor in mW.
	captureLinear float64
	noiseMW       float64
}

var (
	_ Channel  = (*Abstract)(nil)
	_ Releaser = (*Abstract)(nil)
)

// recChunk and memberChunk size the arena blocks: large enough to amortise
// the chunk allocation across many slots, small enough that a short run
// does not hold tens of kilobytes hostage.
const (
	recChunk    = 128
	memberChunk = 1024
)

// bigRecord is the member count above which a record carries a positional
// index map: linear member scans are faster below it, and the giant records
// (p=1 probe slots colliding hundreds of tags) that sit above it would turn
// cascade subtraction quadratic without one.
const bigRecord = 16

// NewAbstract returns the paper's channel model. The rng drives the noise
// processes; it may be shared with the protocol simulation.
func NewAbstract(cfg AbstractConfig, r *rng.Source) *Abstract {
	cfg.Lambda = cfg.Capability.order(cfg.Lambda)
	a := &Abstract{cfg: cfg, rng: r}
	if cfg.Capability.CaptureEnabled() {
		a.captureLinear = cfg.Capability.captureLinear()
		a.noiseMW = cfg.Capability.Budget.NoiseMW()
	}
	return a
}

// Observe implements Channel.
func (a *Abstract) Observe(transmitters []tagid.ID) Observation {
	switch len(transmitters) {
	case 0:
		return Observation{Kind: Empty}
	case 1:
		if a.rng.Bool(a.cfg.PCorruptSingleton) {
			// Corrupted singleton: CRC fails, reader stores a mixed-signal
			// record that can never be decoded; the tag retries later.
			return Observation{Kind: Collision, Mix: a.newMixed(transmitters, false)}
		}
		return Observation{Kind: Singleton, ID: transmitters[0]}
	default:
		if a.captureLinear > 0 {
			if id, ok := a.capture(transmitters); ok {
				// The captured tag peels off for free; the recording's
				// residual is a (k-1)-collision, so resolvability is judged
				// against one fewer constituent.
				resolvable := len(transmitters)-1 <= a.cfg.Lambda && !a.rng.Bool(a.cfg.PUnresolvable)
				return Observation{Kind: Captured, ID: id, Mix: a.newMixed(transmitters, resolvable)}
			}
		}
		resolvable := len(transmitters) <= a.cfg.Lambda && !a.rng.Bool(a.cfg.PUnresolvable)
		return Observation{Kind: Collision, Mix: a.newMixed(transmitters, resolvable)}
	}
}

// capture applies the capture-effect test to a collision: it computes every
// constituent's link-budget receive power and reports the strongest tag if
// its SINR against the rest of the mix plus noise clears the configured
// threshold. Powers are pure hashes of tag identity — no RNG draw, no
// allocation — so enabling capture perturbs nothing downstream of the
// slots it actually changes.
func (a *Abstract) capture(transmitters []tagid.ID) (tagid.ID, bool) {
	var sum, max float64
	var strongest tagid.ID
	for _, id := range transmitters {
		p := a.cfg.Capability.Budget.RxPowerMW(id.HashPrefix())
		sum += p
		if p > max {
			max = p
			strongest = id
		}
	}
	if max < a.captureLinear*(sum-max+a.noiseMW) {
		return tagid.ID{}, false
	}
	return strongest, true
}

func (a *Abstract) newMixed(transmitters []tagid.ID, resolvable bool) *abstractMixed {
	n := len(transmitters)
	var m *abstractMixed
	if k := len(a.free); k > 0 {
		// Recycle a released record. Its member storage,
		// index map and bitset are dead, so reusing them cannot change any
		// observable bit (the map is only ever looked up, never iterated).
		m = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
		members := m.members
		if cap(members) >= n {
			members = members[:n]
			copy(members, transmitters)
		} else {
			members = a.copyMembers(transmitters)
		}
		index, subBig := m.index, m.subBig
		*m = abstractMixed{members: members, unknown: n, resolvable: resolvable}
		if n > bigRecord {
			if index == nil {
				index = make(map[tagid.ID]int32, n)
			} else {
				clear(index)
			}
			for i, id := range members {
				index[id] = int32(i)
			}
			m.index = index
			words := (n + 63) / 64
			if cap(subBig) >= words {
				subBig = subBig[:words]
				clear(subBig)
			} else {
				subBig = make([]uint64, words)
			}
			m.subBig = subBig
		}
		return m
	}
	if len(a.recs) == cap(a.recs) {
		if a.recs != nil {
			a.usedRecs = append(a.usedRecs, a.recs)
		}
		if k := len(a.spareRecs); k > 0 {
			a.recs = a.spareRecs[k-1][:0]
			a.spareRecs[k-1] = nil
			a.spareRecs = a.spareRecs[:k-1]
		} else {
			a.recs = make([]abstractMixed, 0, recChunk)
		}
	}
	a.recs = append(a.recs, abstractMixed{
		members:    a.copyMembers(transmitters),
		unknown:    n,
		resolvable: resolvable,
	})
	m = &a.recs[len(a.recs)-1]
	if len(m.members) > bigRecord {
		m.index = make(map[tagid.ID]int32, len(m.members))
		for i, id := range m.members {
			m.index[id] = int32(i)
		}
		m.subBig = make([]uint64, (len(m.members)+63)/64)
	}
	return m
}

// ReleaseMixed implements Releaser: a fully-resolved record's header and
// backing storage go onto the free list for the next collision to reuse.
func (a *Abstract) ReleaseMixed(m Mixed) {
	am, ok := m.(*abstractMixed)
	if !ok || am.members == nil {
		return
	}
	a.free = append(a.free, am)
}

// Reset rewinds the channel for a fresh repetition over a new RNG: all
// arena chunks are retained and reused, so back-to-back runs allocate
// records only while their live set exceeds every previous run's. The
// caller must guarantee no record from the previous run is still
// referenced (the per-run protocol state has been discarded).
func (a *Abstract) Reset(r *rng.Source) {
	a.rng = r
	for i, c := range a.usedRecs {
		a.spareRecs = append(a.spareRecs, c[:0])
		a.usedRecs[i] = nil
	}
	a.usedRecs = a.usedRecs[:0]
	if a.recs != nil {
		a.spareRecs = append(a.spareRecs, a.recs[:0])
		a.recs = nil
	}
	for i, c := range a.usedPools {
		a.sparePools = append(a.sparePools, c[:0])
		a.usedPools[i] = nil
	}
	a.usedPools = a.usedPools[:0]
	if a.memberPool != nil {
		a.sparePools = append(a.sparePools, a.memberPool[:0])
		a.memberPool = nil
	}
	// Freed records point into the chunks just rewound; handing them out
	// again would alias the arena cursor.
	for i := range a.free {
		a.free[i] = nil
	}
	a.free = a.free[:0]
}

// copyMembers snapshots the transmitter set (the caller reuses its buffer
// next slot) into the member pool. The full slice expression pins the
// capacity so the record's list can never alias a later record's.
func (a *Abstract) copyMembers(transmitters []tagid.ID) []tagid.ID {
	n := len(transmitters)
	if n > memberChunk/2 {
		// Giant record (a p=1 probe slot): give it dedicated storage rather
		// than churning pool chunks.
		out := make([]tagid.ID, n)
		copy(out, transmitters)
		return out
	}
	if len(a.memberPool)+n > cap(a.memberPool) {
		if a.memberPool != nil {
			a.usedPools = append(a.usedPools, a.memberPool)
		}
		if k := len(a.sparePools); k > 0 {
			a.memberPool = a.sparePools[k-1][:0]
			a.sparePools[k-1] = nil
			a.sparePools = a.sparePools[:k-1]
		} else {
			a.memberPool = make([]tagid.ID, 0, memberChunk)
		}
	}
	base := len(a.memberPool)
	a.memberPool = append(a.memberPool, transmitters...)
	return a.memberPool[base : base+n : base+n]
}

// abstractMixed tracks which constituents of a recorded collision have been
// subtracted. Decoding succeeds once a single constituent remains, provided
// the record was resolvable in the first place.
//
// Small records (the steady-state case: multiplicity a handful) keep their
// members in an arena-backed slice with a bitmask of subtracted positions —
// no per-record map, no per-record allocation. Records above bigRecord
// members add a positional index map and a wider bitset.
type abstractMixed struct {
	members    []tagid.ID
	sub        uint64             // subtracted-position bitmask, len(members) <= bigRecord
	subBig     []uint64           // bitset when len(members) > bigRecord
	index      map[tagid.ID]int32 // positional index, only for big records
	unknown    int
	resolvable bool
}

var _ Mixed = (*abstractMixed)(nil)

// find returns the member's position, or -1.
func (m *abstractMixed) find(id tagid.ID) int {
	if m.index != nil {
		if i, ok := m.index[id]; ok {
			return int(i)
		}
		return -1
	}
	for i := range m.members {
		if m.members[i] == id {
			return i
		}
	}
	return -1
}

// subtracted reports whether position i has been cancelled.
func (m *abstractMixed) subtracted(i int) bool {
	if m.subBig != nil {
		return m.subBig[i/64]&(1<<(i%64)) != 0
	}
	return m.sub&(1<<i) != 0
}

func (m *abstractMixed) Contains(id tagid.ID) bool {
	return m.find(id) >= 0
}

func (m *abstractMixed) Subtract(id tagid.ID) {
	i := m.find(id)
	if i < 0 || m.subtracted(i) {
		return
	}
	if m.subBig != nil {
		m.subBig[i/64] |= 1 << (i % 64)
	} else {
		m.sub |= 1 << i
	}
	m.unknown--
}

func (m *abstractMixed) Decode() (tagid.ID, bool) {
	if !m.resolvable || m.unknown != 1 {
		return tagid.ID{}, false
	}
	// Resolvable records have at most lambda members, so this scan is a
	// handful of bitmask tests.
	for i := range m.members {
		if !m.subtracted(i) {
			return m.members[i], true
		}
	}
	return tagid.ID{}, false
}

func (m *abstractMixed) Multiplicity() int { return len(m.members) }

// Remaining implements Residual.
func (m *abstractMixed) Remaining() int { return m.unknown }

// CloneMixed implements Cloner. The member list and positional index are
// immutable after construction and stay shared; the subtraction state is
// copied. The clone lives outside the channel's arena.
func (m *abstractMixed) CloneMixed() Mixed {
	c := *m
	if m.subBig != nil {
		c.subBig = make([]uint64, len(m.subBig))
		copy(c.subBig, m.subBig)
	}
	return &c
}
