// RF model of a multi-reader deployment: per-reader transmit-power link
// budgets, the adjacent-zone interference criterion, and the channel
// wrapper that spoils a victim slot when an interfering reader's carrier
// covers it.
package fleet

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// LinkBudget is the dBm arithmetic of reader-to-reader interference. Zones
// are arranged on a ring (or a line, see Config.Linear); readers one zone
// apart are "adjacent" and their carriers reach each other attenuated by
// AdjacentLossDB. A transmission interferes with a neighbouring zone's
// slot exactly when its received power clears the victim reader's noise
// floor by more than the interference margin — so lowering TxPowerDBm (the
// rfidsim -reader-power flag) below the budget's threshold switches
// reader-to-reader interference off entirely.
type LinkBudget struct {
	// TxPowerDBm is the default reader transmit power (30 dBm ~ 1 W ERP,
	// the UHF RFID regulatory ceiling in most regions).
	TxPowerDBm float64
	// AdjacentLossDB is the path loss between the antennas of readers one
	// zone apart (default 40 dB).
	AdjacentLossDB float64
	// NoiseFloorDBm is the ambient noise floor at the reader's receiver
	// (default -90 dBm).
	NoiseFloorDBm float64
	// InterferenceMarginDB is how far above the noise floor an interfering
	// carrier must land to spoil a slot (default 10 dB).
	InterferenceMarginDB float64
}

// DefaultLinkBudget returns the warehouse-portal defaults: 30 dBm readers,
// 40 dB of separation between adjacent zones, a -90 dBm floor and a 10 dB
// margin — adjacent-zone interference is on (30 - 40 = -10 dBm received,
// far above -80 dBm).
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{TxPowerDBm: 30, AdjacentLossDB: 40, NoiseFloorDBm: -90, InterferenceMarginDB: 10}
}

// withDefaults fills unset (zero) fields with the default budget. A caller
// that really wants a 0 dBm transmitter sets a tiny non-zero value.
func (l LinkBudget) withDefaults() LinkBudget {
	d := DefaultLinkBudget()
	if l.TxPowerDBm == 0 {
		l.TxPowerDBm = d.TxPowerDBm
	}
	if l.AdjacentLossDB == 0 {
		l.AdjacentLossDB = d.AdjacentLossDB
	}
	if l.NoiseFloorDBm == 0 {
		l.NoiseFloorDBm = d.NoiseFloorDBm
	}
	if l.InterferenceMarginDB == 0 {
		l.InterferenceMarginDB = d.InterferenceMarginDB
	}
	return l
}

// Interferes reports whether a transmission at txPowerDBm from an adjacent
// zone spoils this budget's slots: received power after one zone of path
// loss must clear the noise floor by more than the margin.
func (l LinkBudget) Interferes(txPowerDBm float64) bool {
	return txPowerDBm-l.AdjacentLossDB > l.NoiseFloorDBm+l.InterferenceMarginDB
}

// NoiseSigma converts the noise floor into the signal channel's per-sample
// AWGN sigma, referenced to tag backscatter received at -60 dBm mapping to
// unit amplitude. The default -90 dBm floor yields sigma ~ 0.0316, the
// same regime as channel.DefaultSignalConfig's 0.03.
func (l LinkBudget) NoiseSigma() float64 {
	return math.Pow(10, (l.NoiseFloorDBm+60)/20)
}

// SignalConfig feeds the budget into the physical-layer channel preset:
// the default signal configuration with its AWGN sigma derived from the
// budget's noise floor.
func (l LinkBudget) SignalConfig() channel.SignalConfig {
	sc := channel.DefaultSignalConfig()
	sc.NoiseSigma = l.NoiseSigma()
	return sc
}

// rfGate wraps a reader's channel and spoils the observation of slots the
// scheduler marked as interfered. The inner channel always observes first
// — its RNG draws are consumed identically whether or not the slot is
// spoiled, so interference never shifts a run's random stream, only what
// the reader learns from the slot.
//
// The victim asymmetry: a slot is spoiled when an adjacent-zone
// transmission committed in an earlier scheduling window covers its start.
// Empty slots stay empty (carrier sense distinguishes an idle tag field
// from garbled backscatter); singleton and collision slots degrade to a
// channel.Spoiled recording of the slot's transmitters.
type rfGate struct {
	inner channel.Channel
	// interfered is set by the scheduler immediately before the step that
	// executes the slot, and cleared after.
	interfered bool
}

var _ channel.Channel = (*rfGate)(nil)

func (g *rfGate) Observe(transmitters []tagid.ID) channel.Observation {
	o := g.inner.Observe(transmitters)
	if !g.interfered || o.Kind == channel.Empty {
		return o
	}
	return channel.Observation{Kind: channel.Collision, Mix: channel.Spoiled(transmitters)}
}
