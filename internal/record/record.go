// Package record implements the reader side of collision-aware tag
// identification: the store of recorded collision slots and the cascading
// resolution procedure of the paper's Section IV-B pseudo-code.
//
// Whenever the reader learns a tag ID (from a singleton slot or from a
// previous resolution), it revisits every stored collision record the tag
// participated in, subtracts the tag's signal, and attempts to decode the
// residual. Each successful decode yields a new ID which is fed back into
// the same procedure, so one singleton can unlock a whole chain of records.
package record

import (
	"errors"
	"maps"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Resolved reports one ID recovered from a stored collision record.
type Resolved struct {
	// ID is the recovered tag identifier.
	ID tagid.ID
	// Slot is the index of the slot whose record resolved; FCAT acknowledges
	// the recovery by broadcasting this index (Section V-A).
	Slot uint64
}

type entry struct {
	slot     uint64
	mix      channel.Mixed
	resolved bool
}

// member is one node of the member index: the outstanding records an
// unidentified tag participates in. Nodes are keyed by the tag's 64-bit
// report-hash prefix (tagid.HashPrefix), which gives the index map a
// word-sized key; the exact ID is kept on the node and the next pointer
// chains the astronomically unlikely prefix collision, so behaviour is
// exact regardless. The first two records are stored inline because in
// steady state a tag is outstanding in at most a couple of records; only
// deeper histories (heavy acknowledgement loss) spill to a slice.
type member struct {
	id     tagid.ID
	e0, e1 *entry
	more   []*entry
	n      int
	next   *member
}

func (m *member) add(e *entry) {
	switch m.n {
	case 0:
		m.e0 = e
	case 1:
		m.e1 = e
	default:
		m.more = append(m.more, e)
	}
	m.n++
}

// record returns the i'th record in insertion order.
func (m *member) record(i int) *entry {
	switch i {
	case 0:
		return m.e0
	case 1:
		return m.e1
	default:
		return m.more[i-2]
	}
}

// entryChunk and memberNodeChunk size the store's arena blocks. Entries and
// member nodes live until the run ends, so they are carved out of fixed-cap
// chunks (never grown in place — handed-out pointers must stay valid) and
// the per-collision allocation cost amortises to a fraction of a make.
const (
	entryChunk      = 256
	memberNodeChunk = 256
)

// Store holds the reader's outstanding collision records, indexed by
// participant so the resolution cascade touches only relevant records.
//
// Under the real protocol the reader finds the records a newly-learned tag
// participated in by re-evaluating the report hash H(ID|j) against each
// record's advertised threshold; because the hash also decided the original
// transmissions, that scan selects exactly the records the tag is in. The
// member index used here is therefore outcome-identical, just faster.
type Store struct {
	// Tracer, when non-nil, receives record-created, cascade-step and
	// record-resolved events as the store works (see internal/obs).
	// Protocols point it at their run's Env.Tracer.
	Tracer obs.Tracer

	// Quarantine arms the store's poisoned-record defenses, used by the
	// collision-aware protocols when running under fault injection
	// (protocol.Env.Hardened):
	//
	//   - CRC-validated cascade decodes: a decode that yields an ID failing
	//     its CRC is a poisoned record (imperfect cancellation propagated
	//     garbage); the record is quarantined instead of admitting a
	//     phantom ID into the inventory.
	//   - Residual-energy guard: a record whose residual is down to one
	//     constituent but still refuses to decode is permanently
	//     unrecoverable — decoding is deterministic, retrying never helps —
	//     and is evicted rather than retried forever.
	//
	// Either way the record's surviving unidentified members keep their
	// active-tag status and are simply re-queried in later slots (their
	// acknowledgements never arrived), so a quarantine degrades to plain
	// re-query instead of corrupting the store. Off by default: fault-free
	// runs keep their historical, bit-reproducible behaviour.
	Quarantine bool

	// DropAbove, when positive, makes Add discard any record whose
	// multiplicity exceeds it without indexing its members: the entry is
	// never stored, its recording is released immediately when a releaser
	// is armed, and no cascade will ever visit it. This is the roster-aware
	// session's cheap-cascade lever — a pseudo-random ALOHA reader replays
	// every tag's slot choices, so it knows a slot's exact multiplicity up
	// front and can prove a record beyond the decode capability (k > M, or
	// k > M+1 with capture) is dead weight. Only set it to a bound at or
	// above the channel's decode order; 0 (the default) disables pruning
	// and preserves historical behaviour bit for bit.
	DropAbove int

	byMember map[tagid.HashPrefix]*member
	// known records every ID the reader has learned, keyed by hash prefix
	// with the exact ID as the value. A tag whose acknowledgement was lost
	// keeps transmitting (Section IV-E) and lands in new collision records;
	// its signal is already known, so it is subtracted on arrival.
	known map[tagid.HashPrefix]tagid.ID
	// knownOverflow holds further IDs sharing a prefix already in known.
	// It stays nil until the first 64-bit prefix collision among learned
	// IDs, i.e. in practice forever.
	knownOverflow map[tagid.ID]struct{}

	// dead counts, per unidentified tag, the records the channel proved
	// undecodable at capture (channel.Dead) that the tag is a member of.
	// Such a record is never stored: outside Quarantine no subtraction can
	// change its fate, so the count is all a cascade needs of it (the
	// membership total its CascadeStep reports). nil until the first dead
	// record.
	dead map[tagid.ID]int32

	// revoked records tags that left the field unidentified (dynamic
	// workloads; see Revoke). A cascade that strips a record down to a
	// revoked tag marks the record spent instead of yielding the ID: the
	// tag is gone, so the read would be stale. nil until the first Revoke,
	// so batch runs pay nothing.
	revoked map[tagid.ID]struct{}

	active      int
	total       int
	quarantined int
	dropped     int

	// releaser, when armed via SetReleaser, receives each recording the
	// moment its record is marked resolved (after any tracer event that
	// inspects it), so the channel can recycle the buffers behind it and
	// a run keeps only its unresolved recordings alive. cloned
	// sticky-disables releasing once a checkpoint clone shares this
	// store's recordings: a clone's unresolved records alias the same
	// waveform buffers, so recycling them would corrupt the checkpoint.
	releaser channel.Releaser
	cloned   bool

	// Arena chunks and reusable cascade buffers. The queue and out slices
	// back every cascade, so the slice returned by Add/OnIdentified is only
	// valid until the next call on the store.
	entries []entry
	nodes   []member
	queue   []cascadeItem
	out     []Resolved

	// Filled arena chunks are parked on the used lists instead of being
	// dropped, and Reset recycles them through the spare lists, so a store
	// reused across campaign repetitions (protocol.Scratch) reaches a
	// steady state with no arena allocation at all.
	usedEntries, spareEntries [][]entry
	usedNodes, spareNodes     [][]member
}

// NewStore returns an empty record store.
func NewStore() *Store { return NewStoreCap(0) }

// NewStoreCap returns an empty record store whose known-ID index has room
// for n IDs, so a reader that will learn about n tags does not regrow it
// as it reads them.
func NewStoreCap(n int) *Store {
	return &Store{
		byMember: make(map[tagid.HashPrefix]*member),
		known:    make(map[tagid.HashPrefix]tagid.ID, n),
	}
}

// SetReleaser arms record spilling: every recording whose
// record resolves (yields its ID, proves spent, or is quarantined) is
// handed back to the channel for buffer reuse. Must be set before the
// first Add; releasing stops permanently once Clone is called.
func (s *Store) SetReleaser(r channel.Releaser) {
	s.releaser = r
}

// release recycles a resolved entry's recording. Callers invoke it only
// after every tracer event that reads the recording has fired.
func (s *Store) release(e *entry) {
	if s.releaseMix(e.mix) {
		// Drop the reference: the buffers behind it now belong to the
		// channel again, and any stray decode of a released record must
		// fail loudly rather than read recycled memory.
		e.mix = nil
	}
}

// releaseMix hands a recording back to the channel unless releasing is
// off, and reports whether it did.
func (s *Store) releaseMix(mix channel.Mixed) bool {
	if s.releaser == nil || s.cloned || mix == nil {
		return false
	}
	s.releaser.ReleaseMixed(mix)
	return true
}

func (s *Store) newEntry(slot uint64, mix channel.Mixed) *entry {
	if len(s.entries) == cap(s.entries) {
		if cap(s.entries) != 0 {
			s.usedEntries = append(s.usedEntries, s.entries)
		}
		if n := len(s.spareEntries); n > 0 {
			s.entries = s.spareEntries[n-1]
			s.spareEntries = s.spareEntries[:n-1]
		} else {
			s.entries = make([]entry, 0, entryChunk)
		}
	}
	s.entries = append(s.entries, entry{slot: slot, mix: mix})
	return &s.entries[len(s.entries)-1]
}

func (s *Store) isKnown(pre tagid.HashPrefix, id tagid.ID) bool {
	v, ok := s.known[pre]
	if !ok {
		return false
	}
	if v == id {
		return true
	}
	if s.knownOverflow == nil {
		return false
	}
	_, ok = s.knownOverflow[id]
	return ok
}

func (s *Store) markKnown(pre tagid.HashPrefix, id tagid.ID) {
	v, ok := s.known[pre]
	if !ok {
		s.known[pre] = id
		return
	}
	if v == id {
		return
	}
	if s.knownOverflow == nil {
		s.knownOverflow = make(map[tagid.ID]struct{})
	}
	s.knownOverflow[id] = struct{}{}
}

// memberFor returns the index node for id, creating it if absent.
func (s *Store) memberFor(pre tagid.HashPrefix, id tagid.ID) *member {
	for m := s.byMember[pre]; m != nil; m = m.next {
		if m.id == id {
			return m
		}
	}
	if len(s.nodes) == cap(s.nodes) {
		if cap(s.nodes) != 0 {
			s.usedNodes = append(s.usedNodes, s.nodes)
		}
		if n := len(s.spareNodes); n > 0 {
			s.nodes = s.spareNodes[n-1]
			s.spareNodes = s.spareNodes[:n-1]
		} else {
			s.nodes = make([]member, 0, memberNodeChunk)
		}
	}
	s.nodes = append(s.nodes, member{id: id, next: s.byMember[pre]})
	m := &s.nodes[len(s.nodes)-1]
	s.byMember[pre] = m
	return m
}

// takeMember unlinks and returns the index node for id, or nil.
func (s *Store) takeMember(pre tagid.HashPrefix, id tagid.ID) *member {
	m := s.byMember[pre]
	if m == nil {
		return nil
	}
	if m.id == id {
		if m.next == nil {
			delete(s.byMember, pre)
		} else {
			s.byMember[pre] = m.next
		}
		return m
	}
	for prev := m; prev.next != nil; prev = prev.next {
		if prev.next.id == id {
			m = prev.next
			prev.next = m.next
			return m
		}
	}
	return nil
}

// Add stores the mixed signal of a collision slot. members lists the tags
// that transmitted in the slot (the ground truth that the report hash
// reconstructs for the reader). Signals of members the reader has already
// identified are subtracted immediately, which can resolve the record on
// the spot; any IDs recovered this way are returned (including cascades).
// The returned slice is reused: it is valid until the next Add or
// OnIdentified call on this store.
func (s *Store) Add(slot uint64, mix channel.Mixed, members []tagid.ID) []Resolved {
	if s.DropAbove > 0 && len(members) > s.DropAbove {
		// Provably-dead record: its multiplicity exceeds the capability
		// bound the caller vouched for, so no sequence of subtractions can
		// ever decode it. Skip the member index entirely and hand the
		// recording straight back to the channel.
		s.total++
		s.dropped++
		if s.Tracer != nil {
			s.Tracer.Emit(obs.Event{Kind: obs.RecordQuarantined, Seq: int(slot), Label: "order",
				N1: len(members)})
		}
		s.releaseMix(mix)
		return nil
	}
	if !s.Quarantine && channel.Dead(mix) {
		s.addDead(slot, mix, members)
		return nil
	}
	// Under Quarantine a dead record takes this indexed path too: the
	// residual guard counts its subtractions and must still evict it once
	// a single constituent remains, which a bare count cannot tell.
	e := s.newEntry(slot, mix)
	unknown := 0
	for _, id := range members {
		pre := id.HashPrefix()
		if s.isKnown(pre, id) {
			e.mix.Subtract(id)
			continue
		}
		s.memberFor(pre, id).add(e)
		unknown++
	}
	s.total++
	if s.Tracer != nil {
		s.Tracer.Emit(obs.Event{Kind: obs.RecordCreated, Seq: int(slot), N1: len(members), N2: unknown})
	}
	if y, ok := e.mix.Decode(); ok {
		if s.Quarantine && !y.Valid() {
			// Poisoned decode: the residual fails its CRC. Quarantine the
			// record; its unidentified member keeps retransmitting and is
			// re-read from a clean slot later.
			s.discard(e, "crc")
			return nil
		}
		if s.isRevoked(y) || s.isKnown(y.HashPrefix(), y) {
			// The residual names a departed tag (stale read) or one the
			// reader already knows (possible when the member list carries a
			// duplicated ID, so the duplicate's subtraction was a no-op).
			// The record is spent, but yields nothing — the same guards the
			// cascade applies.
			e.resolved = true
			if s.Tracer != nil {
				s.Tracer.Emit(obs.Event{Kind: obs.RecordResolved, Seq: int(slot), ID: y, Flag: true})
			}
			s.release(e)
			return nil
		}
		// All but one member were already known: the record resolves as it
		// is stored.
		e.resolved = true
		if s.Tracer != nil {
			s.Tracer.Emit(obs.Event{Kind: obs.RecordResolved, Seq: int(slot), ID: y})
		}
		s.release(e)
		s.out = append(s.out[:0], Resolved{ID: y, Slot: slot})
		s.queue = append(s.queue[:0], cascadeItem{id: y, pre: y.HashPrefix()})
		s.cascade()
		return s.out
	}
	if unknown == 0 {
		// Every member was a retransmitting known tag; nothing new here.
		e.resolved = true
		s.release(e)
		return nil
	}
	if s.Quarantine {
		if rem, ok := channel.Remaining(e.mix); ok && rem <= 1 {
			// Residual-energy guard: one constituent left and the decode
			// still failed, so the record can never resolve (decoding is
			// deterministic). Do not even hold it.
			s.discard(e, "residual")
			return nil
		}
	}
	s.active++
	return nil
}

// addDead books a recording the channel proves can never decode without
// storing it: each unknown member's dead-membership count goes up, the
// record counts as created and, with an unknown member, as active (it
// will never resolve), exactly as the indexed record would, and the
// recording goes straight back to the channel.
func (s *Store) addDead(slot uint64, mix channel.Mixed, members []tagid.ID) {
	if s.dead == nil {
		s.dead = make(map[tagid.ID]int32, len(members))
	}
	unknown := 0
	for _, id := range members {
		if s.isKnown(id.HashPrefix(), id) {
			continue
		}
		s.dead[id]++
		unknown++
	}
	s.total++
	if s.Tracer != nil {
		s.Tracer.Emit(obs.Event{Kind: obs.RecordCreated, Seq: int(slot), N1: len(members), N2: unknown})
	}
	if unknown > 0 {
		s.active++
	}
	s.releaseMix(mix)
}

// takeDead removes and returns id's dead-membership count.
func (s *Store) takeDead(id tagid.ID) int {
	n, ok := s.dead[id]
	if ok {
		delete(s.dead, id)
	}
	return int(n)
}

// Reset rewinds the store for a new run, retaining its arena chunks, map
// bucket storage and cascade buffers. Equivalent to NewStore() in every
// observable way: all counters, indexes, defenses and the releaser
// are cleared; chunks are zeroed so no recording from the
// previous run stays pinned.
func (s *Store) Reset() {
	s.Tracer = nil
	s.Quarantine = false
	s.DropAbove = 0
	if s.byMember == nil {
		s.byMember = make(map[tagid.HashPrefix]*member)
	} else {
		clear(s.byMember)
	}
	if s.known == nil {
		s.known = make(map[tagid.HashPrefix]tagid.ID)
	} else {
		clear(s.known)
	}
	s.knownOverflow = nil
	clear(s.dead)
	s.revoked = nil
	s.active, s.total, s.quarantined, s.dropped = 0, 0, 0, 0
	s.releaser = nil
	s.cloned = false
	s.queue = s.queue[:0]
	s.out = s.out[:0]

	if cap(s.entries) != 0 {
		s.usedEntries = append(s.usedEntries, s.entries)
	}
	s.entries = nil
	for _, c := range s.usedEntries {
		clear(c[:cap(c)])
		s.spareEntries = append(s.spareEntries, c[:0])
	}
	s.usedEntries = s.usedEntries[:0]

	if cap(s.nodes) != 0 {
		s.usedNodes = append(s.usedNodes, s.nodes)
	}
	s.nodes = nil
	for _, c := range s.usedNodes {
		clear(c[:cap(c)])
		s.spareNodes = append(s.spareNodes, c[:0])
	}
	s.usedNodes = s.usedNodes[:0]
}

// discard quarantines a freshly stored, never-counted record: it is marked
// resolved so no cascade revisits it, and its surviving members fall back
// to plain re-query.
func (s *Store) discard(e *entry, reason string) {
	e.resolved = true
	s.quarantined++
	if s.Tracer != nil {
		s.Tracer.Emit(obs.Event{Kind: obs.RecordQuarantined, Seq: int(e.slot), Label: reason,
			N1: e.mix.Multiplicity()})
	}
	s.release(e)
}

// Quarantined returns the number of records the store has quarantined.
func (s *Store) Quarantined() int { return s.quarantined }

// Revoke removes a departed tag from the store's outstanding bookkeeping:
// its member-index node and dead-membership count are dropped —
// invalidating every pending collision-record membership, so no cascade
// will ever be started for the tag — and the ID is remembered so that a
// record whose residual strips down to the departed tag is marked spent
// rather than yielding a stale identification. Records the tag participated in remain stored: their
// other members can still be recovered by subtracting signals the reader
// does know. Revoking an identified or unknown tag only marks the ID.
func (s *Store) Revoke(id tagid.ID) {
	if node := s.takeMember(id.HashPrefix(), id); node != nil {
		node.e0, node.e1, node.more = nil, nil, nil
	}
	s.takeDead(id)
	if s.revoked == nil {
		s.revoked = make(map[tagid.ID]struct{})
	}
	s.revoked[id] = struct{}{}
}

// Readmit clears a tag's revoked mark when it re-enters the field, so its
// future transmissions decode normally again. Memberships severed by the
// earlier Revoke stay severed — the reader discarded that bookkeeping when
// the tag left.
func (s *Store) Readmit(id tagid.ID) {
	if s.revoked != nil {
		delete(s.revoked, id)
	}
}

// isRevoked reports whether the tag has departed unidentified.
func (s *Store) isRevoked(id tagid.ID) bool {
	if s.revoked == nil {
		return false
	}
	_, ok := s.revoked[id]
	return ok
}

// MarkKnown tells a fresh store that the reader already knows this ID (a
// retransmitter from an earlier frame whose acknowledgement was lost), so
// its signal is subtracted from any record it joins.
func (s *Store) MarkKnown(id tagid.ID) {
	s.markKnown(id.HashPrefix(), id)
}

// Active returns the number of unresolved records currently held.
func (s *Store) Active() int { return s.active }

// OnIdentified tells the store that the reader has learned id, and runs the
// resolution cascade: the tag's signal is subtracted from every record it
// participated in, fully-determined records are decoded, and each recovered
// ID is processed the same way. It returns the recovered IDs with the slots
// whose records yielded them, in recovery order. The returned slice is
// reused: it is valid until the next Add or OnIdentified call on this
// store.
func (s *Store) OnIdentified(id tagid.ID) []Resolved {
	s.out = s.out[:0]
	s.queue = append(s.queue[:0], cascadeItem{id: id, pre: id.HashPrefix()})
	s.cascade()
	return s.out
}

// cascade drains s.queue breadth-first, appending recoveries to s.out.
func (s *Store) cascade() {
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		s.markKnown(x.pre, x.id)
		node := s.takeMember(x.pre, x.id)
		dead := s.takeDead(x.id)
		if node == nil && dead == 0 {
			continue
		}
		if s.Tracer != nil {
			// N1 counts every membership, dead ones included.
			live := 0
			if node != nil {
				live = node.n
			}
			s.Tracer.Emit(obs.Event{Kind: obs.CascadeStep, ID: x.id, N1: live + dead, N2: x.depth})
		}
		if node == nil {
			continue
		}
		for i := 0; i < node.n; i++ {
			e := node.record(i)
			if e.resolved {
				continue
			}
			e.mix.Subtract(x.id)
			y, ok := e.mix.Decode()
			if !ok {
				if s.Quarantine {
					if rem, rok := channel.Remaining(e.mix); rok && rem <= 1 {
						// Residual-energy guard: the subtraction left a single
						// constituent that still refuses to decode — the
						// record is permanently unrecoverable. Evict it so the
						// cascade never revisits it; its last member stays
						// active and falls back to plain re-query.
						s.evict(e, "residual")
					}
				}
				continue
			}
			if s.Quarantine && !y.Valid() {
				// CRC-validated cascade decode: a residual failing its CRC is
				// a poisoned record; quarantine it instead of admitting a
				// phantom ID into the inventory.
				s.evict(e, "crc")
				continue
			}
			e.resolved = true
			s.active--
			ypre := y.HashPrefix()
			if s.isRevoked(y) {
				// The residual names a tag that left the field unidentified:
				// the record is spent, but the stale read is discarded (the
				// acknowledgement would go unanswered).
				if s.Tracer != nil {
					s.Tracer.Emit(obs.Event{Kind: obs.RecordResolved, Seq: int(e.slot), ID: y,
						ID2: x.id, N1: x.depth + 1, Flag: true})
				}
				s.release(e)
				continue
			}
			if s.isKnown(ypre, y) {
				// The residual is a signal the reader already knows: two
				// records in one cascade can strip down to the same tag
				// (e.g. {A,B}@i and {A,B}@j when A is learned). The second
				// record is spent, but yields nothing new.
				if s.Tracer != nil {
					s.Tracer.Emit(obs.Event{Kind: obs.RecordResolved, Seq: int(e.slot), ID: y,
						ID2: x.id, N1: x.depth + 1, Flag: true})
				}
				s.release(e)
				continue
			}
			s.markKnown(ypre, y)
			if s.Tracer != nil {
				s.Tracer.Emit(obs.Event{Kind: obs.RecordResolved, Seq: int(e.slot), ID: y,
					ID2: x.id, N1: x.depth + 1})
			}
			s.release(e)
			s.out = append(s.out, Resolved{ID: y, Slot: e.slot})
			s.queue = append(s.queue, cascadeItem{id: y, pre: ypre, depth: x.depth + 1})
		}
		// The node is spent; drop its record references so resolved mixes
		// are not pinned by the arena.
		node.e0, node.e1, node.more = nil, nil, nil
	}
}

// evict quarantines a record that was counted active: it is marked resolved
// and removed from the active count.
func (s *Store) evict(e *entry, reason string) {
	e.resolved = true
	s.active--
	s.quarantined++
	if s.Tracer != nil {
		s.Tracer.Emit(obs.Event{Kind: obs.RecordQuarantined, Seq: int(e.slot), Label: reason,
			N1: e.mix.Multiplicity()})
	}
	s.release(e)
}

// Clone returns a deep copy of the store for a session checkpoint:
// continuing to use the original (or the clone) leaves the other
// untouched. Unresolved recordings are cloned via channel.CloneMixed;
// resolved entries' recordings are never mutated again and stay shared.
// It fails when the channel's Mixed implementation does not support
// cloning. The clone carries the same Tracer.
func (s *Store) Clone() (*Store, error) {
	// From here on the clone's unresolved records share waveform buffers
	// with ours, so recycling them is permanently off (see SetReleaser).
	// Memory bounds degrade gracefully under checkpointing; the replayed
	// behaviour stays bit-identical either way.
	s.cloned = true
	c := &Store{
		Tracer:      s.Tracer,
		Quarantine:  s.Quarantine,
		DropAbove:   s.DropAbove,
		byMember:    make(map[tagid.HashPrefix]*member, len(s.byMember)),
		known:       make(map[tagid.HashPrefix]tagid.ID, len(s.known)),
		active:      s.active,
		total:       s.total,
		quarantined: s.quarantined,
		dropped:     s.dropped,
	}
	for k, v := range s.known {
		c.known[k] = v
	}
	if s.knownOverflow != nil {
		c.knownOverflow = make(map[tagid.ID]struct{}, len(s.knownOverflow))
		for id := range s.knownOverflow {
			c.knownOverflow[id] = struct{}{}
		}
	}
	c.dead = maps.Clone(s.dead)
	if s.revoked != nil {
		c.revoked = make(map[tagid.ID]struct{}, len(s.revoked))
		for id := range s.revoked {
			c.revoked[id] = struct{}{}
		}
	}
	// Entries are reachable only through member nodes; copy each exactly
	// once so nodes sharing a record share its clone too.
	cloned := make(map[*entry]*entry)
	cloneEntry := func(e *entry) (*entry, error) {
		if ce, ok := cloned[e]; ok {
			return ce, nil
		}
		ce := &entry{slot: e.slot, mix: e.mix, resolved: e.resolved}
		if !e.resolved {
			mix, ok := channel.CloneMixed(e.mix)
			if !ok {
				return nil, errors.New("record: channel recording does not support cloning")
			}
			ce.mix = mix
		}
		cloned[e] = ce
		return ce, nil
	}
	for pre, head := range s.byMember {
		var prevClone *member
		for node := head; node != nil; node = node.next {
			nc := &member{id: node.id, n: node.n}
			for i := 0; i < node.n; i++ {
				e := node.record(i)
				if e == nil {
					nc.n = i
					break
				}
				ce, err := cloneEntry(e)
				if err != nil {
					return nil, err
				}
				nc.add2(i, ce)
			}
			if prevClone == nil {
				c.byMember[pre] = nc
			} else {
				prevClone.next = nc
			}
			prevClone = nc
		}
	}
	return c, nil
}

// add2 places a record clone at position i (mirrors add, but positional).
func (m *member) add2(i int, e *entry) {
	switch i {
	case 0:
		m.e0 = e
	case 1:
		m.e1 = e
	default:
		m.more = append(m.more, e)
	}
}

// cascadeItem is one pending step of the resolution cascade: a
// newly-learned ID (with its precomputed hash prefix) and the cascade depth
// it was learned at.
type cascadeItem struct {
	id    tagid.ID
	pre   tagid.HashPrefix
	depth int
}
