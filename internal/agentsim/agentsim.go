// Package agentsim is an independent, message-level reference
// implementation of FCAT used to differentially validate the fast
// simulator in package fcat.
//
// Where package fcat simulates from the reader's vantage point (an
// active-tag set, a member-indexed record store), this package simulates
// the protocol as deployed hardware would run it:
//
//   - every tag is an explicit state machine that hears advertisements,
//     evaluates its report hash, remembers the slot indices it transmitted
//     in, and goes quiet only when it hears its own ID or a matching
//     resolved-slot index in an acknowledgement;
//   - the reader determines a learned tag's membership in old collision
//     records by re-evaluating H(ID|j) against each record's advertised
//     threshold — the O(records) scan of the paper's Section IV-B
//     pseudo-code — rather than by the member index;
//   - collision records hold the raw constituent multiset and resolve by
//     subtraction bookkeeping written independently of package record.
//
// Under the hash transmission model with a noiseless channel both
// implementations are fully deterministic functions of the population, so
// their metrics must agree exactly; the differential test in this package
// asserts just that.
package agentsim

import (
	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/estimate"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Config parameterises the reference FCAT run; the fields mirror
// fcat.Config's defaults exactly (lambda, optimal omega, f = 30).
type Config struct {
	Lambda    int
	Omega     float64
	FrameSize int
}

func (c Config) withDefaults() Config {
	if c.Lambda < 1 {
		c.Lambda = 2
	}
	if c.Omega <= 0 {
		c.Omega = analysis.OptimalOmega(c.Lambda)
	}
	if c.FrameSize <= 0 {
		c.FrameSize = 30
	}
	return c
}

// tag is one tag's state machine.
type tag struct {
	id tagid.ID
	// active is cleared when the tag hears a positive acknowledgement.
	active bool
	// txSlots are the slot indices this tag transmitted in and has not yet
	// been acknowledged for; it compares them against resolved-slot
	// acknowledgements (Section V-A).
	txSlots []uint64
}

// pendingRecord is the reader's memory of one unresolved collision slot.
type pendingRecord struct {
	slot      uint64
	threshold uint32
	// constituents is the recorded mixed signal: in this simulation, the
	// multiset of signals still buried in it.
	constituents []tagid.ID
	multiplicity int
}

// sim carries one reference run.
type sim struct {
	cfg     Config
	timing  air.Timing
	tags    []*tag
	m       protocol.Metrics
	clock   air.Clock
	records []*pendingRecord
	known   map[tagid.ID]bool
	slot    uint64
	budget  int
}

// Run executes the reference FCAT protocol over the population. Only the
// noiseless abstract channel semantics are modelled (the differential
// test's setting); env's channel is not consulted.
func Run(env *protocol.Env, cfg Config) (protocol.Metrics, error) {
	cfg = cfg.withDefaults()
	s := &sim{
		cfg:    cfg,
		timing: env.Timing,
		m:      protocol.Metrics{Tags: len(env.Tags)},
		known:  make(map[tagid.ID]bool, len(env.Tags)),
		budget: env.SlotBudget(),
	}
	s.tags = make([]*tag, len(env.Tags))
	for i, id := range env.Tags {
		s.tags[i] = &tag{id: id, active: true}
	}
	err := s.execute()
	s.m.OnAir = s.clock.Elapsed()
	return s.m, err
}

func (s *sim) execute() error {
	estimateN, done, err := s.bootstrap()
	if err != nil {
		return err
	}
	if done {
		return nil
	}

	var tracker estimate.Tracker
	f := s.cfg.FrameSize
	for {
		remaining := estimateN - float64(s.m.Identified())
		if remaining < 0.5 {
			empty, err := s.probe()
			if err != nil {
				return err
			}
			if empty {
				return nil
			}
			rem, emptied, err := s.reBootstrap()
			if err != nil {
				return err
			}
			if emptied {
				return nil
			}
			estimateN = float64(s.m.Identified()) + rem
			tracker = estimate.Tracker{}
			continue
		}

		p := s.cfg.Omega / remaining
		if p > 1 {
			p = 1
		}
		s.clock.Add(s.timing.FrameAdvertisement())
		identifiedBefore := s.m.Identified()
		nc, n0 := 0, 0
		for j := 0; j < f; j++ {
			kind, err := s.doSlot(p)
			if err != nil {
				return err
			}
			switch kind {
			case slotEmpty:
				n0++
			case slotCollision:
				nc++
			}
		}
		s.m.Frames++

		if n0 == f {
			empty, err := s.probe()
			if err != nil {
				return err
			}
			if empty {
				return nil
			}
			rem, emptied, err := s.reBootstrap()
			if err != nil {
				return err
			}
			if emptied {
				return nil
			}
			estimateN = float64(s.m.Identified()) + rem
			tracker = estimate.Tracker{}
			continue
		}

		frameEst, ok := s.estimateFrame(nc, n0, f-n0-nc, p)
		if !ok {
			deficit := estimateN - float64(s.m.Identified())
			if deficit < 1 {
				deficit = 1
			}
			estimateN = float64(s.m.Identified()) + 2*deficit + 1
			continue
		}
		tracker.Add(frameEst + float64(identifiedBefore))
		estimateN, _ = tracker.Mean()
	}
}

func (s *sim) estimateFrame(nc, n0, n1 int, p float64) (float64, bool) {
	if nc == 0 {
		return float64(n1) / (float64(s.cfg.FrameSize) * p), true
	}
	return estimate.Exact(nc, s.cfg.FrameSize, p)
}

// bootstrap mirrors fcat's geometric probe: single slots at p = 1/2, 1/4,
// ... until one does not collide, or until p reaches one over the slot
// budget, whose population bound is then the estimate. done reports an
// empty field.
func (s *sim) bootstrap() (est float64, done bool, err error) {
	p := 1.0
	for {
		p /= 2
		kind, err := s.doSlotAdvertised(p)
		if err != nil {
			return 0, false, err
		}
		if kind != slotCollision {
			if kind == slotEmpty && p == 0.5 {
				probeKind, err := s.doSlotAdvertised(1)
				if err != nil {
					return 0, false, err
				}
				if probeKind == slotEmpty {
					return 0, true, nil
				}
			}
			return 1 / p, false, nil
		}
		if p*float64(s.budget) <= 1 {
			return float64(s.budget), false, nil
		}
	}
}

// reBootstrap relocates the outstanding population after an answered
// termination probe, mirroring fcat's recovery.
func (s *sim) reBootstrap() (est float64, done bool, err error) {
	return s.bootstrap()
}

// probe runs one p=1 slot; empty proves termination.
func (s *sim) probe() (empty bool, err error) {
	kind, err := s.doSlotAdvertised(1)
	if err != nil {
		return false, err
	}
	return kind == slotEmpty, nil
}

type slotKind int

const (
	slotEmpty slotKind = iota + 1
	slotSingleton
	slotCollision
)

func (s *sim) doSlotAdvertised(p float64) (slotKind, error) {
	s.clock.Add(s.timing.SlotAdvertisement())
	return s.doSlot(p)
}

// doSlot runs one report+acknowledgement slot: every active tag evaluates
// the advertised threshold against its report hash and transmits.
func (s *sim) doSlot(p float64) (slotKind, error) {
	if int(s.slot) >= s.budget {
		return 0, protocol.ErrNoProgress
	}
	slot := s.slot
	s.slot++
	s.clock.Add(s.timing.Slot())

	threshold := tagid.Threshold(p)
	var transmitters []*tag
	for _, t := range s.tags {
		if t.active && t.id.Reports(slot, threshold) {
			t.txSlots = append(t.txSlots, slot)
			transmitters = append(transmitters, t)
		}
	}

	s.m.TagTransmissions += len(transmitters)
	switch len(transmitters) {
	case 0:
		s.m.EmptySlots++
		return slotEmpty, nil
	case 1:
		s.m.SingletonSlots++
		t := transmitters[0]
		if !s.known[t.id] {
			s.known[t.id] = true
			s.m.DirectIDs++
		}
		// Positive acknowledgement carrying the ID silences the tag.
		t.hearIDAck()
		s.learn(t.id)
		return slotSingleton, nil
	default:
		s.m.CollisionSlots++
		rec := &pendingRecord{
			slot:         slot,
			threshold:    threshold,
			multiplicity: len(transmitters),
		}
		for _, t := range transmitters {
			if s.known[t.id] {
				// The reader re-encodes signals it already knows and
				// subtracts them from the recording immediately.
				continue
			}
			rec.constituents = append(rec.constituents, t.id)
		}
		s.records = append(s.records, rec)
		s.resolveFixpoint()
		return slotCollision, nil
	}
}

// learn runs the Section IV-B cascade for a newly learned ID: scan every
// record, test membership by the report hash, subtract, and decode
// stripped-bare records.
func (s *sim) learn(id tagid.ID) {
	for _, rec := range s.records {
		if !id.Reports(rec.slot, rec.threshold) {
			continue
		}
		rec.remove(id)
	}
	s.resolveFixpoint()
}

// resolveFixpoint decodes records until none changes: each record with
// exactly one remaining constituent (and multiplicity within the ANC
// capability) yields that ID, which is acknowledged by its slot index and
// subtracted everywhere it appears.
func (s *sim) resolveFixpoint() {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(s.records); i++ {
			rec := s.records[i]
			if len(rec.constituents) != 1 || rec.multiplicity > s.cfg.Lambda {
				continue
			}
			id := rec.constituents[0]
			rec.constituents = nil
			if !s.known[id] {
				s.known[id] = true
				s.m.ResolvedIDs++
			}
			// Acknowledge by broadcasting the resolved record's slot index;
			// every tag that transmitted in that slot and has been learned
			// goes quiet. (Only the recovered tag matches an un-acked
			// transmission here.)
			s.clock.Add(s.timing.ResolvedIndexAck())
			for _, t := range s.tags {
				t.hearSlotIndexAck(rec.slot)
			}
			// The newly learned signal strips the other records.
			for _, other := range s.records {
				if other == rec {
					continue
				}
				if id.Reports(other.slot, other.threshold) {
					other.remove(id)
				}
			}
			changed = true
		}
		if changed {
			s.compactRecords()
		}
	}
}

// compactRecords drops spent records (resolved or fully subtracted).
func (s *sim) compactRecords() {
	kept := s.records[:0]
	for _, rec := range s.records {
		if len(rec.constituents) > 0 {
			kept = append(kept, rec)
		}
	}
	s.records = kept
}

func (r *pendingRecord) remove(id tagid.ID) {
	for i, c := range r.constituents {
		if c == id {
			r.constituents = append(r.constituents[:i], r.constituents[i+1:]...)
			return
		}
	}
}

// hearIDAck is the tag reacting to a positive acknowledgement carrying
// its own ID.
func (t *tag) hearIDAck() {
	t.active = false
	t.txSlots = nil
}

// hearSlotIndexAck is the tag reacting to a resolved-slot-index broadcast:
// if it transmitted in that slot, its ID has been collected and it stops
// participating (Section V-A).
func (t *tag) hearSlotIndexAck(slot uint64) {
	if !t.active {
		return
	}
	for _, s := range t.txSlots {
		if s == slot {
			t.active = false
			t.txSlots = nil
			return
		}
	}
}
