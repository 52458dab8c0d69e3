// Package fault is the deterministic fault injector of the simulator: a
// composition of channel- and reader-level fault shapes whose schedule is a
// pure function of (campaign seed, run index), independent of how many
// random draws the protocol under test makes — the same contract the
// workload scheduler keeps (see internal/workload).
//
// The collision-recovery literature the roadmap cites (Ricciato &
// Castiglione; Fyhn et al.) shows ANC-style recovery degrades sharply under
// imperfect cancellation; this package supplies the imperfections:
//
//   - Gilbert–Elliott burst noise: a two-state good/bad process on the
//     channel. Slots in the bad state lose their singletons (CRC-corrupted,
//     recorded as undecodable collisions) and spoil their collision records.
//   - Acknowledgement loss: reader acks dropped on top of Env.PAckLoss, so
//     tags retransmit until a later acknowledgement gets through.
//   - Tag faults: muted tags (damaged antennas — selected per ID, never
//     heard) and stuck responders (tags that key up out of protocol).
//   - Silent decode corruption: a cascade decode that passes the channel
//     but yields a bit-flipped ID, exercising the reader's CRC defenses
//     (record.Store quarantine).
//   - Reader crash/restart: a slot-boundary schedule consumed by the
//     dynamic driver (sim.RunDynamic), which rewinds the session through
//     the Snapshot/Restore machinery.
//
// Determinism and rewind safety. Every per-slot and per-tag decision is a
// hash of (salt, fault stream, position) — no sequential RNG consumption —
// so replaying a slot after a checkpoint restore reproduces the identical
// fault. The two pieces of mutable state (the acknowledgement counter and
// the lazily extended burst schedule) are rewind-safe by construction: the
// counter is captured and restored with the fault channel's snapshot, and
// the burst schedule is append-only (queries for rewound slots re-read
// boundaries that were already drawn). docs/robustness.md states the rules.
package fault

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Burst parameterises the Gilbert–Elliott burst-noise process.
type Burst struct {
	// Duty is the long-run fraction of slots spent in the bad state.
	// 0 disables burst noise; 1 keeps the channel bad permanently.
	Duty float64
	// MeanBad is the mean bad-sojourn length in slots (default 8). The mean
	// good sojourn follows from Duty: MeanBad * (1-Duty) / Duty.
	MeanBad float64
}

// Config composes the fault shapes of one campaign. The zero value injects
// nothing: Enabled reports false and the simulator takes its fault-free
// fast path, bit-identical to a build without this package.
type Config struct {
	// AckLoss is the probability an individual reader acknowledgement is
	// dropped, on top of (and independent of) protocol.Env.PAckLoss.
	AckLoss float64

	// Burst is the Gilbert–Elliott burst-noise process on the channel.
	Burst Burst

	// MuteProb is the probability a given tag is mute: present and counted
	// by the workload, but never heard by the reader.
	MuteProb float64

	// StuckProb is the probability a given tag is a stuck responder: it
	// keys up out of protocol in slots it was never scheduled to report in.
	StuckProb float64
	// StuckTxProb is the per-slot probability a stuck responder transmits
	// out of turn (default 0.5 when StuckProb > 0).
	StuckTxProb float64

	// CorruptSingleton is the per-slot probability a lone report is
	// corrupted in flight: its CRC fails and the reader records an
	// undecodable collision; the tag retries later.
	CorruptSingleton float64

	// CorruptDecode is the per-record probability that resolving the record
	// yields a silently bit-flipped ID instead of the true residual — the
	// poisoned-decode case the record store's CRC quarantine exists for.
	CorruptDecode float64

	// CrashEvery, when positive, crashes the reader every CrashEvery
	// executed slots (wall slots, monotone across restarts). Only the chaos
	// harness consumes it: the crash restores the last session checkpoint
	// and replays from there.
	CrashEvery int
}

// Enabled reports whether any fault shape is configured.
func (c Config) Enabled() bool {
	return c.AckLoss > 0 || c.Burst.Duty > 0 || c.MuteProb > 0 ||
		c.StuckProb > 0 || c.CorruptSingleton > 0 || c.CorruptDecode > 0 ||
		c.CrashEvery > 0
}

// withDefaults normalises the zero values.
func (c Config) withDefaults() Config {
	if c.Burst.Duty > 0 && c.Burst.MeanBad <= 0 {
		c.Burst.MeanBad = 8
	}
	if c.Burst.Duty > 1 {
		c.Burst.Duty = 1
	}
	if c.StuckProb > 0 && c.StuckTxProb <= 0 {
		c.StuckTxProb = 0.5
	}
	return c
}

// Stream salts keep the decision families independent: the same position
// hashed under different salts yields independent draws.
const (
	saltAck      = 0x41434b21_00000001
	saltMute     = 0x4d555445_00000002
	saltStuckSel = 0x53545543_00000003
	saltStuckTx  = 0x53545854_00000004
	saltSingle   = 0x53494e47_00000005
	saltDecode   = 0x4445434f_00000006
	saltBurst    = 0x42555253_00000007
	saltRoot     = 0x616e6366_61756c74 // "ancfault"
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix used to turn
// (salt, position) pairs into independent uniform words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Injector draws the fault decisions of one run. It is single-goroutine,
// like the rng.Source and Env of the run it serves. Construct one per run
// with New; the zero Injector (and a nil *Injector) injects nothing.
type Injector struct {
	cfg  Config
	salt uint64

	// acks counts acknowledgement draws. It is the injector's only
	// sequential state and is captured/restored with the fault channel's
	// snapshot, so a rewound session replays identical acknowledgement
	// fates.
	acks uint64

	// Gilbert–Elliott sojourn schedule: bounds[i] is the first slot index
	// after sojourn i; even sojourns are good, odd are bad. The schedule is
	// extended lazily from its own generator and never truncated, so
	// rewound queries are pure re-reads.
	geRng    *rng.Source
	bounds   []uint64
	geCursor uint64 // first slot index not yet covered by bounds
}

// New derives the run's injector from the campaign seed and run index. The
// derivation is independent of the run generator handed to the protocol, so
// enabling faults never shifts a protocol's own draws.
func New(cfg Config, seed uint64, run int) *Injector {
	cfg = cfg.withDefaults()
	inj := &Injector{
		cfg:  cfg,
		salt: mix64(seed ^ saltRoot ^ mix64((uint64(run)+1)*0x9e3779b97f4a7c15)),
	}
	if cfg.Burst.Duty > 0 {
		inj.geRng = rng.New(inj.salt ^ saltBurst)
	}
	return inj
}

// Config returns the injector's normalised configuration.
func (i *Injector) Config() Config { return i.cfg }

// chance draws a Bernoulli(p) decision for one (stream, position) pair.
func (i *Injector) chance(stream, pos uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := mix64(i.salt ^ stream ^ mix64(pos))
	return float64(h>>11)*(1.0/(1<<53)) < p
}

// AckDelivered draws the fate of the next reader acknowledgement: false
// means the injector dropped it. A nil injector delivers everything.
func (i *Injector) AckDelivered() bool {
	if i == nil {
		return true
	}
	i.acks++
	return !i.chance(saltAck, i.acks, i.cfg.AckLoss)
}

// Acks returns the ordinal of the last acknowledgement drawn, for labelling
// fault events.
func (i *Injector) Acks() uint64 { return i.acks }

// Muted reports whether the tag is permanently mute. The selection is a
// pure function of the ID, so it never changes within a run.
func (i *Injector) Muted(id tagid.ID) bool {
	return i.chance(saltMute, uint64(id.HashPrefix()), i.cfg.MuteProb)
}

// Stuck reports whether the tag is a stuck responder.
func (i *Injector) Stuck(id tagid.ID) bool {
	return i.chance(saltStuckSel, uint64(id.HashPrefix()), i.cfg.StuckProb)
}

// StuckTransmits reports whether a stuck responder keys up out of turn in
// the given slot.
func (i *Injector) StuckTransmits(slot uint64, id tagid.ID) bool {
	return i.chance(saltStuckTx, mix64(slot)^uint64(id.HashPrefix()), i.cfg.StuckTxProb)
}

// CorruptSingleton reports whether the slot's lone report is corrupted in
// flight.
func (i *Injector) CorruptSingleton(slot uint64) bool {
	return i.chance(saltSingle, slot, i.cfg.CorruptSingleton)
}

// CorruptDecodeBit returns the bit to flip in the record's resolved ID and
// whether the record's decode is silently corrupted at all. The decision is
// a pure function of the record's slot, so repeated decodes of the same
// record corrupt identically.
func (i *Injector) CorruptDecodeBit(slot uint64) (int, bool) {
	if !i.chance(saltDecode, slot, i.cfg.CorruptDecode) {
		return 0, false
	}
	return int(mix64(i.salt^saltDecode^mix64(slot^0x5bd1)) % tagid.Bits), true
}

// BadSlot reports whether the Gilbert–Elliott process is in the bad state
// for the given slot, extending the sojourn schedule as needed.
func (i *Injector) BadSlot(slot uint64) bool {
	if i.geRng == nil {
		return false
	}
	if i.cfg.Burst.Duty >= 1 {
		return true
	}
	for i.geCursor <= slot {
		// Alternate good/bad sojourns with geometric-ish (rounded
		// exponential) lengths matching the configured duty cycle.
		mean := i.cfg.Burst.MeanBad * (1 - i.cfg.Burst.Duty) / i.cfg.Burst.Duty
		if len(i.bounds)%2 == 1 { // next sojourn is bad
			mean = i.cfg.Burst.MeanBad
		}
		i.geCursor += i.geomLen(mean)
		i.bounds = append(i.bounds, i.geCursor)
	}
	// Binary search for the sojourn containing slot; odd index = bad.
	lo, hi := 0, len(i.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if i.bounds[mid] <= slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo%2 == 1
}

// geomLen draws one sojourn length (>= 1 slot) with the given mean.
func (i *Injector) geomLen(mean float64) uint64 {
	if mean < 1 {
		mean = 1
	}
	u := i.geRng.Float64()
	n := uint64(-mean * math.Log1p(-u))
	if n < 1 {
		n = 1
	}
	return n
}

// ShouldCrash reports whether the reader crashes after executing the given
// wall slot (a monotone count of executed slots that is NOT rewound by a
// restore — otherwise a crash would re-trigger forever at the same point).
func (i *Injector) ShouldCrash(wallSlot uint64) bool {
	if i == nil || i.cfg.CrashEvery <= 0 || wallSlot == 0 {
		return false
	}
	return wallSlot%uint64(i.cfg.CrashEvery) == 0
}

// injectorState is the injector's rewindable state (see Channel snapshots).
type injectorState struct{ acks uint64 }

func (i *Injector) snapshotState() injectorState { return injectorState{acks: i.acks} }

func (i *Injector) restoreState(st injectorState) { i.acks = st.acks }
