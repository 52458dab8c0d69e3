package protocol

import (
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// ActiveSet tracks the tags still participating in a probabilistic protocol
// (those that have not yet received a positive acknowledgement) and draws
// per-slot transmitter sets under either transmission model.
//
// The set keeps a struct-of-arrays layout: the IDs and their precomputed
// report-hash prefixes (tagid.HashPrefix) live in parallel slices, so the
// per-slot TxHash scan folds only the 8 slot bytes per tag instead of
// re-hashing the full 20-byte (ID, slot) input — the dominant cost of the
// exact transmission model at large N.
type ActiveSet struct {
	ids      []tagid.ID
	prefixes []tagid.HashPrefix
	// pos maps each active tag to its index in ids; int32 positions keep
	// a map slot at 16 B for the 12-byte IDs.
	pos map[tagid.ID]int32

	// idx is the reusable scratch for TxBinomial's distinct-index draws; it
	// keeps steady-state slots allocation-free.
	idx []int

	// stream arms backing-array compaction on Remove (Env.Stream): once
	// the live set falls below a quarter of capacity, the arrays and the
	// position map are rebuilt at the live size, so a mega-N inventory's
	// active-set memory shrinks with the outstanding population. Off by
	// default: the steady-state zero-allocation guarantees of Remove/Add
	// hold exactly when compaction is off.
	stream bool
}

// NewActiveSet returns a set containing all given tags.
func NewActiveSet(tags []tagid.ID) *ActiveSet {
	s := &ActiveSet{
		ids:      make([]tagid.ID, len(tags)),
		prefixes: make([]tagid.HashPrefix, len(tags)),
		pos:      make(map[tagid.ID]int32, len(tags)),
	}
	copy(s.ids, tags)
	for i, id := range s.ids {
		s.prefixes[i] = id.HashPrefix()
		s.pos[id] = int32(i)
	}
	return s
}

// SetStream toggles streaming-mode compaction (see the stream field).
func (s *ActiveSet) SetStream(on bool) { s.stream = on }

// ResetTags reinitialises the set in place for a new repetition over a new
// population, reusing the backing arrays and map storage of the previous
// one. Equivalent to NewActiveSet(tags) in every observable way.
func (s *ActiveSet) ResetTags(tags []tagid.ID) {
	s.stream = false
	n := len(tags)
	if cap(s.ids) < n {
		s.ids = make([]tagid.ID, n)
		s.prefixes = make([]tagid.HashPrefix, n)
	} else {
		s.ids = s.ids[:n]
		s.prefixes = s.prefixes[:n]
	}
	copy(s.ids, tags)
	if s.pos == nil {
		s.pos = make(map[tagid.ID]int32, n)
	} else {
		clear(s.pos)
	}
	for i, id := range s.ids {
		s.prefixes[i] = id.HashPrefix()
		s.pos[id] = int32(i)
	}
}

// Len returns the number of active tags.
func (s *ActiveSet) Len() int { return len(s.ids) }

// Contains reports whether the tag is active.
func (s *ActiveSet) Contains(id tagid.ID) bool {
	_, ok := s.pos[id]
	return ok
}

// IDs returns the active tags in the set's internal order. The slice is the
// set's own storage: callers must not modify it and must not hold it across
// mutations.
func (s *ActiveSet) IDs() []tagid.ID { return s.ids }

// Add admits a tag into the set. It reports whether the tag was added
// (false when already present).
func (s *ActiveSet) Add(id tagid.ID) bool {
	if _, ok := s.pos[id]; ok {
		return false
	}
	s.pos[id] = int32(len(s.ids))
	s.ids = append(s.ids, id)
	s.prefixes = append(s.prefixes, id.HashPrefix())
	return true
}

// Clone returns a deep copy of the set, streaming mode included (scratch
// buffers excluded).
func (s *ActiveSet) Clone() *ActiveSet {
	c := &ActiveSet{
		ids:      make([]tagid.ID, len(s.ids)),
		prefixes: make([]tagid.HashPrefix, len(s.prefixes)),
		pos:      make(map[tagid.ID]int32, len(s.pos)),
		stream:   s.stream,
	}
	copy(c.ids, s.ids)
	copy(c.prefixes, s.prefixes)
	for id, i := range s.pos {
		c.pos[id] = i
	}
	return c
}

// Remove silences a tag (it received its acknowledgement). It reports
// whether the tag was still active.
func (s *ActiveSet) Remove(id tagid.ID) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.ids) - 1
	moved := s.ids[last]
	s.ids[i] = moved
	s.prefixes[i] = s.prefixes[last]
	s.pos[moved] = i
	s.ids = s.ids[:last]
	s.prefixes = s.prefixes[:last]
	delete(s.pos, id)
	if s.stream && cap(s.ids) >= 1024 && len(s.ids) < cap(s.ids)/4 {
		s.compact()
	}
	return true
}

// compact rebuilds the backing arrays and position map at the live size
// (with 2x headroom for re-admissions). Entry order is preserved, so
// compaction is invisible to the transmitter draws.
func (s *ActiveSet) compact() {
	n := len(s.ids)
	c := 2 * n
	if c < 64 {
		c = 64
	}
	ids := make([]tagid.ID, n, c)
	prefixes := make([]tagid.HashPrefix, n, c)
	copy(ids, s.ids)
	copy(prefixes, s.prefixes)
	s.ids, s.prefixes = ids, prefixes
	// Rebuild the map from the slice (deterministic order) so its bucket
	// storage, sized for the peak population, is released too.
	pos := make(map[tagid.ID]int32, n)
	for i, id := range ids {
		pos[id] = int32(i)
	}
	s.pos = pos
}

// Transmitters returns the tags that report in the given slot at report
// probability p, appended to buf (which is reused across slots to avoid
// allocation). The hash model evaluates H(ID|slot) per tag from the
// precomputed prefixes; the binomial model draws the count and samples
// distinct tags.
func (s *ActiveSet) Transmitters(r *rng.Source, model TxModel, slot uint64, p float64, buf []tagid.ID) []tagid.ID {
	buf = buf[:0]
	switch model {
	case TxHash:
		threshold := tagid.Threshold(p)
		for i, pre := range s.prefixes {
			if pre.Reports(slot, threshold) {
				buf = append(buf, s.ids[i])
			}
		}
	default: // TxBinomial
		k := r.Binomial(len(s.ids), p)
		if k == 0 {
			return buf
		}
		if k >= len(s.ids) {
			return append(buf, s.ids...)
		}
		s.idx = r.SampleDistinctAppend(s.idx[:0], k, len(s.ids))
		for _, i := range s.idx {
			buf = append(buf, s.ids[i])
		}
	}
	return buf
}
