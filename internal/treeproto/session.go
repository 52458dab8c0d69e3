// Session implementations for the tree protocols. A step is one query
// slot: popping a group (ABS) or serving the queue head (AQS). Both
// sessions keep stepping after the tree drains — ABS probes the empty
// field one slot at a time, AQS replays its retained leaf queries as
// fresh monitoring rounds — so tags admitted later are picked up by the
// continuing traversal.
package treeproto

import (
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// absSession carries one ABS execution: the explicit depth-first group
// stack on top of the session core.
type absSession struct {
	protocol.Core
	stack [][]tagid.ID
	// pending counts each tag's occurrences in the stack's groups. It is
	// built on the first Admit or Revoke, so batch runs never pay for it.
	pending map[tagid.ID]int
}

var _ protocol.Session = (*absSession)(nil)

// Begin implements protocol.SessionProtocol. The first round of ABS
// begins with all tags answering the initial query (every counter starts
// at zero), which is one big collision that the random splitting then
// resolves.
func (p ABS) Begin(env *protocol.Env) protocol.Session {
	s := &absSession{}
	s.Open(p.Name(), env)
	s.stack = [][]tagid.ID{append([]tagid.ID(nil), env.Tags...)}
	return s
}

// Step implements protocol.Session: one query slot. With the stack
// drained the reader keeps probing the (empty) field, so an admitted
// group restarts the traversal on the next step.
func (s *absSession) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if _, err := s.NextSlot(); err != nil {
		return false, err
	}
	var group []tagid.ID
	if n := len(s.stack); n > 0 {
		group = s.stack[n-1]
		s.stack = s.stack[:n-1]
	}
	s.Charge(s.Env.Timing.Slot())

	obs := s.Env.Channel.Observe(group)
	switch obs.Kind {
	case channel.Empty:
		s.M.EmptySlots++
		s.settle(group)
	case channel.Singleton:
		s.M.SingletonSlots++
		// A lone report from an already-read tag (a stuck responder keying
		// up out of turn) is not a fresh identification.
		s.Count(obs.ID, false)
		s.settle(group)
	case channel.Collision, channel.Captured:
		// Each colliding tag draws a random bit; the zero-subset
		// transmits in the next slot. Tags are exchangeable under the
		// random draw, so splitting by a binomial count is equivalent to
		// per-tag draws. A Captured observation is handled as a plain
		// collision: the splitting protocol has no acknowledgement for an
		// out-of-turn decode, so the captured tag re-contends like the rest.
		s.M.CollisionSlots++
		k := s.Env.RNG.Binomial(len(group), 0.5)
		zero, one := group[:k], group[k:]
		s.stack = append(s.stack, one, zero)
	}
	s.CloseSlot(obs.Kind, len(group))
	return len(s.stack) == 0, nil
}

// settle uncounts a group that left the stack unsplit.
func (s *absSession) settle(group []tagid.ID) {
	if s.pending == nil {
		return
	}
	for _, id := range group {
		if c := s.pending[id]; c > 1 {
			s.pending[id] = c - 1
		} else {
			delete(s.pending, id)
		}
	}
}

// buildPending counts the stack's occurrences on first use, with room for
// extra more tags.
func (s *absSession) buildPending(extra int) {
	if s.pending != nil {
		return
	}
	s.pending = make(map[tagid.ID]int, s.Outstanding()+extra)
	for _, g := range s.stack {
		for _, id := range g {
			s.pending[id]++
		}
	}
}

// Admit implements protocol.Session: the tags join the traversal as one
// fresh group, queued below the pending splits so the in-flight
// resolution finishes first (new arrivals reset their counters past the
// current tree in ABS). IDs already pending or already counted are
// skipped, and an ID repeated in the batch joins the group once.
func (s *absSession) Admit(ids []tagid.ID) {
	s.buildPending(len(ids))
	var group []tagid.ID
	for _, id := range ids {
		if _, identified := s.Seen[id]; identified {
			continue
		}
		if s.pending[id] > 0 {
			continue
		}
		s.pending[id]++
		group = append(group, id)
		s.M.Tags++
	}
	if len(group) > 0 {
		s.stack = append([][]tagid.ID{group}, s.stack...)
	}
}

// Revoke implements protocol.Session: the tags simply stop answering, so
// one filter pass drops them from the pending groups, each revocation
// taking the first remaining occurrence from the bottom of the stack up.
// ABS keeps no collision records, so nothing else needs invalidating.
func (s *absSession) Revoke(ids []tagid.ID) {
	s.buildPending(0)
	n := 0
	// drop counts the revocations of tags pending more than once (a
	// population that lists an ID twice keeps both copies); the filter
	// takes those from the front and keeps the rest, while a tag whose
	// count fell to zero goes entirely.
	var drop map[tagid.ID]int
	for _, id := range ids {
		switch c := s.pending[id]; c {
		case 0:
			continue
		case 1:
			delete(s.pending, id)
		default:
			s.pending[id] = c - 1
			if drop == nil {
				drop = make(map[tagid.ID]int)
			}
			drop[id]++
		}
		n++
	}
	if n == 0 {
		return
	}
	for i, g := range s.stack {
		kept := g[:0]
		for _, id := range g {
			if drop[id] > 0 {
				drop[id]--
				continue
			}
			if s.pending[id] > 0 {
				kept = append(kept, id)
			}
		}
		s.stack[i] = kept
	}
}

// Outstanding implements protocol.Session.
func (s *absSession) Outstanding() int {
	n := 0
	for _, g := range s.stack {
		n += len(g)
	}
	return n
}

func cloneGroups(groups [][]tagid.ID) [][]tagid.ID {
	out := make([][]tagid.ID, len(groups))
	for i, g := range groups {
		if len(g) > 0 {
			out[i] = append([]tagid.ID(nil), g...)
		}
	}
	return out
}

// Snapshot implements protocol.Session.
func (s *absSession) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(cloneGroups(s.stack))
}

// Restore implements protocol.Session.
func (s *absSession) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		s.stack, s.pending = cloneGroups(x.([][]tagid.ID)), nil
		return nil
	})
}

// aqsSession carries one AQS reading process: the current round's query
// queue plus the retained leaves the next round starts from, on top of the
// session core.
type aqsSession struct {
	protocol.Core
	aqsState
	// present is the membership set of active. It is built on the first
	// Admit or Revoke, so batch runs never pay for it.
	present map[tagid.ID]struct{}
}

// aqsState is AQS's own session state, deep-copied into checkpoints.
type aqsState struct {
	queue      []query
	head       int
	nextLeaves []leaf
	// leaves is the retained readable-query set, refreshed each time a
	// round completes.
	leaves []leaf
	// active lists the currently present tags in admission order; rounds
	// after the first re-read only the unidentified ones.
	active []tagid.ID
}

var _ protocol.Session = (*aqsSession)(nil)

// Begin implements protocol.SessionProtocol: a reading process started
// from the root queries, exactly like Run. The retained reader state (the
// adaptive feature RunRound exposes) is seeded from a.leaves.
func (a *AQS) Begin(env *protocol.Env) protocol.Session {
	return a.begin(env, nil)
}

func (a *AQS) begin(env *protocol.Env, start []leaf) *aqsSession {
	s := &aqsSession{}
	s.active = append([]tagid.ID(nil), env.Tags...)
	s.leaves = start
	s.Open(a.Name(), env)
	s.beginRound(start, env.Tags)
	return s
}

// beginRound builds the round's query queue: the retained leaves if a
// previous round ran, else the root queries 0 and 1.
func (s *aqsSession) beginRound(start []leaf, tags []tagid.ID) {
	s.head = 0
	s.nextLeaves = nil
	if len(start) > 0 {
		s.queue = replayLeaves(start, tags)
		return
	}
	var zero, one []tagid.ID
	for _, id := range tags {
		if id.Bit(0) == 0 {
			zero = append(zero, id)
		} else {
			one = append(one, id)
		}
	}
	s.queue = []query{
		{depth: 1, prefix: withBit(tagid.ID{}, 0, 0), tags: zero},
		{depth: 1, prefix: withBit(tagid.ID{}, 0, 1), tags: one},
	}
}

// unidentified returns the active tags not yet read, in admission order.
func (s *aqsSession) unidentified() []tagid.ID {
	out := make([]tagid.ID, 0, len(s.active))
	for _, id := range s.active {
		if _, ok := s.Seen[id]; !ok {
			out = append(out, id)
		}
	}
	return out
}

// Step implements protocol.Session: one query slot, breadth-first from
// the FIFO queue. When the round's queue drains the step reports done and
// the retained leaves are refreshed; the next step replays them over the
// still-unidentified population — AQS's periodic-inventory monitoring —
// so arrivals collide inside their covering leaf and are split out.
func (s *aqsSession) Step() (bool, error) {
	if s.Err != nil {
		return false, s.Err
	}
	if s.head >= len(s.queue) {
		s.beginRound(s.leaves, s.unidentified())
	}
	if _, err := s.NextSlot(); err != nil {
		return false, err
	}
	q := s.queue[s.head]
	s.head++
	s.Charge(s.Env.Timing.Slot())

	obs := s.Env.Channel.Observe(q.tags)
	switch obs.Kind {
	case channel.Empty:
		s.M.EmptySlots++
		// Empty queries stay readable and are retained; sibling empties
		// are merged after the round so stale holes do not accumulate.
		s.nextLeaves = append(s.nextLeaves, leaf{depth: q.depth, prefix: q.prefix})
	case channel.Singleton:
		s.M.SingletonSlots++
		// A lone report from an already-read tag (a stuck responder keying
		// up out of turn) is not a fresh identification.
		s.Count(obs.ID, false)
		s.nextLeaves = append(s.nextLeaves, leaf{depth: q.depth, prefix: q.prefix, hasTag: true})
	case channel.Collision, channel.Captured:
		// A Captured observation splits like a plain collision: the query
		// tree has no acknowledgement path for an out-of-turn decode, so
		// the captured tag is re-read at a deeper prefix.
		s.M.CollisionSlots++
		if q.depth >= tagid.Bits {
			// Identical 96-bit IDs cannot be split further; with the
			// distinct populations used here this cannot happen.
			return s.Fail(protocol.ErrNoProgress)
		}
		var zero, one []tagid.ID
		for _, id := range q.tags {
			if id.Bit(q.depth) == 0 {
				zero = append(zero, id)
			} else {
				one = append(one, id)
			}
		}
		s.queue = append(s.queue,
			query{depth: q.depth + 1, prefix: withBit(q.prefix, q.depth, 0), tags: zero},
			query{depth: q.depth + 1, prefix: withBit(q.prefix, q.depth, 1), tags: one})
	}
	s.CloseSlot(obs.Kind, len(q.tags))
	if s.head >= len(s.queue) {
		s.leaves = mergeEmptySiblings(s.nextLeaves)
		return true, nil
	}
	return false, nil
}

// buildPresent builds the membership set on first use, with room for
// extra more members.
func (s *aqsSession) buildPresent(extra int) {
	if s.present != nil {
		return
	}
	s.present = make(map[tagid.ID]struct{}, len(s.active)+extra)
	for _, id := range s.active {
		s.present[id] = struct{}{}
	}
}

// Admit implements protocol.Session: arrivals join the population and are
// read in the next round, colliding inside the retained leaf that covers
// their ID — exactly AQS's arrival story.
func (s *aqsSession) Admit(ids []tagid.ID) {
	s.buildPresent(len(ids))
	for _, id := range ids {
		if _, identified := s.Seen[id]; identified {
			continue
		}
		before := len(s.present)
		s.present[id] = struct{}{}
		if len(s.present) == before {
			continue // already present
		}
		s.active = append(s.active, id)
		s.M.Tags++
	}
}

// Revoke implements protocol.Session: departed tags stop answering, so one
// filter pass drops them from the population and from the pending queries
// of the in-flight round, which only ever hold present tags. AQS keeps no
// collision records to invalidate.
func (s *aqsSession) Revoke(ids []tagid.ID) {
	s.buildPresent(0)
	n := 0
	for _, id := range ids {
		before := len(s.present)
		delete(s.present, id)
		if len(s.present) < before {
			n++
		}
	}
	if n == 0 {
		return
	}
	s.active = protocol.KeepIn(s.active, s.present)
	for j := s.head; j < len(s.queue); j++ {
		s.queue[j].tags = protocol.KeepIn(s.queue[j].tags, s.present)
	}
}

// Outstanding implements protocol.Session.
func (s *aqsSession) Outstanding() int {
	n := 0
	for _, id := range s.active {
		if _, ok := s.Seen[id]; !ok {
			n++
		}
	}
	return n
}

// clone deep-copies the state.
func (st aqsState) clone() aqsState {
	queue := make([]query, len(st.queue))
	for i, q := range st.queue {
		queue[i] = query{depth: q.depth, prefix: q.prefix}
		if len(q.tags) > 0 {
			queue[i].tags = append([]tagid.ID(nil), q.tags...)
		}
	}
	return aqsState{
		queue:      queue,
		head:       st.head,
		nextLeaves: append([]leaf(nil), st.nextLeaves...),
		leaves:     append([]leaf(nil), st.leaves...),
		active:     append([]tagid.ID(nil), st.active...),
	}
}

// Snapshot implements protocol.Session.
func (s *aqsSession) Snapshot() (protocol.Checkpoint, error) {
	return s.SnapshotWith(s.aqsState.clone())
}

// Restore implements protocol.Session.
func (s *aqsSession) Restore(c protocol.Checkpoint) error {
	return s.RestoreWith(c, func(x any) error {
		s.aqsState, s.present = x.(aqsState).clone(), nil
		return nil
	})
}
