package channel

import (
	"slices"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Spoiled returns the recording of a slot whose samples noise ruined: a
// burst, a lone report that failed its CRC, or an adjacent reader's carrier
// (paper, Section IV-E). The simulator still knows who transmitted, so the
// recording keeps its membership and counts subtractions for the record
// store's residual-energy guard, but no cancellation ever recovers a
// residual: Decode always fails and Dead reports true. members is copied.
func Spoiled(members []tagid.ID) Mixed {
	return &spoiled{
		members:   slices.Clone(members),
		sub:       make([]bool, len(members)),
		remaining: len(members),
	}
}

type spoiled struct {
	members []tagid.ID
	// sub marks the members subtracted so far; a repeated ID is tracked at
	// its first position, as the abstract channel's recording tracks it.
	sub       []bool
	remaining int
}

var (
	_ Mixed    = (*spoiled)(nil)
	_ Cloner   = (*spoiled)(nil)
	_ Residual = (*spoiled)(nil)
	_ Doomed   = (*spoiled)(nil)
)

func (m *spoiled) Contains(id tagid.ID) bool { return slices.Contains(m.members, id) }

func (m *spoiled) Subtract(id tagid.ID) {
	if i := slices.Index(m.members, id); i >= 0 && !m.sub[i] {
		m.sub[i] = true
		m.remaining--
	}
}

func (m *spoiled) Decode() (tagid.ID, bool) { return tagid.ID{}, false }

func (m *spoiled) Multiplicity() int { return len(m.members) }

// Remaining implements Residual.
func (m *spoiled) Remaining() int { return m.remaining }

// Dead implements Doomed.
func (m *spoiled) Dead() bool { return true }

// CloneMixed implements Cloner. The member list is immutable and stays
// shared; the subtraction state is copied.
func (m *spoiled) CloneMixed() Mixed {
	c := *m
	c.sub = slices.Clone(m.sub)
	return &c
}
