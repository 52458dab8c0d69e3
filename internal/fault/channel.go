package fault

import (
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Channel wraps a channel model and applies the injector's channel-level
// fault shapes: muted tags are filtered out of the transmitter set, stuck
// responders are added to it, burst noise and singleton corruption turn a
// slot into a channel.Spoiled recording, and decode corruption poisons a
// collision recording's eventual decode.
//
// The wrapper numbers slots itself (one per Observe call) and implements
// channel.Stateful even when the inner channel does not: a session
// checkpoint captures the slot counter, the stuck-responder roster and the
// injector's acknowledgement counter, so a restored session replays the
// identical fault schedule.
type Channel struct {
	// Tracer, when non-nil, receives a FaultInjected event per fault taking
	// effect. protocol.Env.InjectFaults points it at the run's Env.Tracer.
	Tracer obs.Tracer

	inner channel.Channel
	inj   *Injector

	slot uint64
	// stuck is the roster of admitted stuck responders, in admission order
	// so runs are deterministic. Muted tags never make the roster: a tag
	// that cannot transmit cannot key up out of turn either.
	stuck []tagid.ID
	txBuf []tagid.ID
}

var (
	_ channel.Channel  = (*Channel)(nil)
	_ channel.Stateful = (*Channel)(nil)
)

// WrapChannel layers the injector's channel faults over inner.
func WrapChannel(inner channel.Channel, inj *Injector) *Channel {
	return &Channel{inner: inner, inj: inj}
}

// Admit registers a tag entering the field, drawing its stuck-responder
// fate. Call it once per admission (protocol.Env.InjectFaults admits the
// initial population; the dynamic and fleet drivers admit on arrival).
func (c *Channel) Admit(id tagid.ID) {
	if c.inj.cfg.StuckProb <= 0 || !c.inj.Stuck(id) || c.inj.Muted(id) {
		return
	}
	for _, s := range c.stuck {
		if s == id {
			return
		}
	}
	c.stuck = append(c.stuck, id)
}

// AdmitAll registers a whole population (batch runs).
func (c *Channel) AdmitAll(ids []tagid.ID) {
	for _, id := range ids {
		c.Admit(id)
	}
}

// Revoke removes a departed tag from the stuck-responder roster.
func (c *Channel) Revoke(id tagid.ID) {
	for i, s := range c.stuck {
		if s == id {
			c.stuck = append(c.stuck[:i], c.stuck[i+1:]...)
			return
		}
	}
}

func (c *Channel) emit(slot uint64, kind obs.FaultKind, id tagid.ID) {
	if c.Tracer != nil {
		c.Tracer.Emit(obs.Event{Kind: obs.FaultInjected, Seq: int(slot), Sub: uint8(kind), ID: id})
	}
}

// Observe implements channel.Channel: it edits the transmitter set (mute,
// stuck), lets the inner channel observe the edited slot, then applies the
// slot-scoped faults (burst, corruption) to the observation.
func (c *Channel) Observe(transmitters []tagid.ID) channel.Observation {
	slot := c.slot
	c.slot++

	tx := transmitters
	if c.inj.cfg.MuteProb > 0 || len(c.stuck) > 0 {
		c.txBuf = c.txBuf[:0]
		for _, id := range transmitters {
			if c.inj.cfg.MuteProb > 0 && c.inj.Muted(id) {
				c.emit(slot, obs.FaultMute, id)
				continue
			}
			c.txBuf = append(c.txBuf, id)
		}
	stuckLoop:
		for _, id := range c.stuck {
			if !c.inj.StuckTransmits(slot, id) {
				continue
			}
			for _, t := range c.txBuf {
				if t == id {
					// Already transmitting legitimately this slot.
					continue stuckLoop
				}
			}
			c.txBuf = append(c.txBuf, id)
			c.emit(slot, obs.FaultStuck, id)
		}
		tx = c.txBuf
	}

	ob := c.inner.Observe(tx)
	bad := c.inj.BadSlot(slot)
	switch ob.Kind {
	case channel.Singleton:
		// Record only the tag the reader heard: on the signal channel a
		// singleton can hide a much weaker transmitter it captured over.
		if bad {
			c.emit(slot, obs.FaultBurst, ob.ID)
			return channel.Observation{Kind: channel.Collision, Mix: channel.Spoiled([]tagid.ID{ob.ID})}
		}
		if c.inj.CorruptSingleton(slot) {
			c.emit(slot, obs.FaultCorruptSingleton, ob.ID)
			return channel.Observation{Kind: channel.Collision, Mix: channel.Spoiled([]tagid.ID{ob.ID})}
		}
	case channel.Collision, channel.Captured:
		if bad {
			// The burst drowns every constituent, a captured one included:
			// the recording keeps the slot's transmitters and never decodes.
			c.emit(slot, obs.FaultBurst, tagid.ID{})
			return channel.Observation{Kind: channel.Collision, Mix: channel.Spoiled(tx)}
		}
		if bit, ok := c.inj.CorruptDecodeBit(slot); ok {
			// A captured ID already decoded off the air; the corruption
			// lands on the stored residual.
			c.emit(slot, obs.FaultCorruptDecode, tagid.ID{})
			ob.Mix = &corruptMixed{inner: ob.Mix, bit: bit}
		}
	}
	return ob
}

// channelState is the wrapper's checkpointable state.
type channelState struct {
	inner any
	slot  uint64
	stuck []tagid.ID
	inj   injectorState
}

// SnapshotState implements channel.Stateful.
func (c *Channel) SnapshotState() any {
	st := channelState{slot: c.slot, inj: c.inj.snapshotState()}
	if len(c.stuck) > 0 {
		st.stuck = append([]tagid.ID(nil), c.stuck...)
	}
	if s, ok := c.inner.(channel.Stateful); ok {
		st.inner = s.SnapshotState()
	}
	return st
}

// RestoreState implements channel.Stateful.
func (c *Channel) RestoreState(state any) {
	st := state.(channelState)
	c.slot = st.slot
	c.stuck = append(c.stuck[:0], st.stuck...)
	c.inj.restoreState(st.inj)
	if s, ok := c.inner.(channel.Stateful); ok && st.inner != nil {
		s.RestoreState(st.inner)
	}
}

// corruptMixed wraps a collision recording whose eventual decode silently
// yields a bit-flipped ID: cancellation "succeeds" but the residual was
// damaged below the CRC's notice at capture time. The flipped bit always
// breaks the CRC of the decoded ID (tagid.CorruptBit), which is exactly
// what the record store's CRC-validated cascade decode quarantines.
type corruptMixed struct {
	inner channel.Mixed
	bit   int
}

var (
	_ channel.Mixed    = (*corruptMixed)(nil)
	_ channel.Cloner   = (*corruptMixed)(nil)
	_ channel.Residual = (*corruptMixed)(nil)
)

func (m *corruptMixed) Contains(id tagid.ID) bool { return m.inner.Contains(id) }

func (m *corruptMixed) Subtract(id tagid.ID) { m.inner.Subtract(id) }

func (m *corruptMixed) Decode() (tagid.ID, bool) {
	y, ok := m.inner.Decode()
	if !ok {
		return tagid.ID{}, false
	}
	return y.CorruptBit(m.bit), true
}

func (m *corruptMixed) Multiplicity() int { return m.inner.Multiplicity() }

func (m *corruptMixed) Remaining() int {
	if r, ok := channel.Remaining(m.inner); ok {
		return r
	}
	return m.inner.Multiplicity()
}

func (m *corruptMixed) CloneMixed() channel.Mixed {
	ci, ok := channel.CloneMixed(m.inner)
	if !ok {
		return nil
	}
	return &corruptMixed{inner: ci, bit: m.bit}
}
