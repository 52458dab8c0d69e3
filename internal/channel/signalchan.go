package channel

import (
	"math"
	"math/cmplx"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/signal"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// SignalConfig parameterises the physical-layer channel model.
type SignalConfig struct {
	// SamplesPerBit is the complex-baseband oversampling factor.
	SamplesPerBit int

	// NoiseSigma is the per-sample AWGN standard deviation. Tag amplitudes
	// are drawn from [MinAmplitude, MaxAmplitude], so NoiseSigma expresses
	// noise relative to unit signal scale.
	NoiseSigma float64

	// MinAmplitude and MaxAmplitude bound the per-tag channel attenuation.
	// Tags are static during a read (Section IV-E), so a tag keeps its gain
	// for the whole run.
	MinAmplitude float64
	MaxAmplitude float64

	// PhaseJitter, when positive, adds a uniform random phase offset in
	// [-PhaseJitter, +PhaseJitter] radians to every individual transmission,
	// modelling oscillator drift between slots. The ANC canceller absorbs it
	// through per-record gain estimation.
	PhaseJitter float64

	// FrequencyOffsetMax, when positive, gives every tag a static carrier-
	// frequency offset drawn uniformly from [-FrequencyOffsetMax,
	// +FrequencyOffsetMax] radians per sample, modelling free-running tag
	// oscillators. The decoder then cancels constituents with the joint
	// gain-and-offset estimator instead of plain least squares.
	FrequencyOffsetMax float64

	// MaxCancel limits how many known constituents the decoder will try to
	// cancel from one record, mirroring the lambda capability of the
	// slot-level model. Zero means unlimited (cancellation is attempted and
	// succeeds or fails on the CRC alone).
	MaxCancel int

	// Capability is the power-aware decode model. When its MaxOrder is set
	// it overrides MaxCancel; when its capture threshold is positive, tag
	// amplitudes become deterministic link-budget draws (scaled into
	// [0, MaxAmplitude]) instead of uniform random, and a collision whose
	// dominant constituent still decodes with a valid CRC is reported as
	// Captured rather than silently treated as a clean singleton or lost.
	// The zero value changes nothing, including the RNG draw sequence.
	Capability Capability
}

// DefaultSignalConfig returns a configuration representative of a quiet
// warehouse: mild attenuation spread, 30 dB SNR, static phase.
func DefaultSignalConfig() SignalConfig {
	return SignalConfig{
		SamplesPerBit: signal.DefaultSamplesPerBit,
		NoiseSigma:    0.03,
		MinAmplitude:  0.5,
		MaxAmplitude:  1.0,
	}
}

// Signal is the physical-layer channel: transmissions are MSK waveforms,
// collisions are sums, and collision resolution is genuine interference
// cancellation with CRC verification.
//
// All waveform math runs on the batched structure-of-arrays kernels of
// package signal (flat float64 I/Q planes, see signal/soa.go): synthesis
// accumulates each transmitter straight into a reusable rx plane, and the
// decoder's gain fits, cancellations and envelope tests are block loops
// over the same planes. The kernels are bit-identical to the scalar
// complex128 path, so the channel's observable behaviour is unchanged.
//
// Each tag's reference waveform is cached as a compact signal.Ref: one
// uint16 phase-state index per sample, an eighth of a plane. Synthesis
// reads it in place; the decoder expands its known constituents into a
// few scratch planes owned by the channel and runs the plane kernels on
// those.
//
// The channel owns the scratch buffers of its hot paths: the received
// plane is handed off to the collision record when a slot must be kept
// and comes back through ReleaseMixed once the record resolves, and the
// decoder's reference planes, least-squares system and residual plane are
// reused across cancellation attempts. A Signal is single-goroutine, like
// the rng.Source it wraps.
type Signal struct {
	cfg     SignalConfig
	rng     *rng.Source
	gains   map[tagid.ID]complex128
	offsets map[tagid.ID]float64
	refs    map[tagid.ID]*signal.Ref
	rots    map[tagid.ID]*signal.Plane // cached e^(i*dw*n) ramps, offset mode only

	rxBuf     *signal.Plane // slot accumulator; nil after a collision keeps it
	freeRx    []*signal.Plane
	refPlanes []*signal.Plane // expanded references of the decoder and the offset synthesis
	gainsBuf  []complex128
	ls        signal.GainScratch
	resBuf    signal.Plane // decoder residual
}

var (
	_ Channel  = (*Signal)(nil)
	_ Releaser = (*Signal)(nil)
)

// NewSignal returns a physical-layer channel. Zero-valued config fields are
// replaced with the defaults from DefaultSignalConfig.
func NewSignal(cfg SignalConfig, r *rng.Source) *Signal {
	def := DefaultSignalConfig()
	if cfg.SamplesPerBit <= 0 {
		cfg.SamplesPerBit = def.SamplesPerBit
	}
	if cfg.MinAmplitude <= 0 {
		cfg.MinAmplitude = def.MinAmplitude
	}
	if cfg.MaxAmplitude <= 0 {
		cfg.MaxAmplitude = def.MaxAmplitude
	}
	if cfg.MaxAmplitude < cfg.MinAmplitude {
		cfg.MaxAmplitude = cfg.MinAmplitude
	}
	if cfg.Capability.MaxOrder > 0 {
		cfg.MaxCancel = cfg.Capability.MaxOrder
	}
	return &Signal{
		cfg:     cfg,
		rng:     r,
		gains:   make(map[tagid.ID]complex128),
		offsets: make(map[tagid.ID]float64),
		refs:    make(map[tagid.ID]*signal.Ref),
		rots:    make(map[tagid.ID]*signal.Plane),
	}
}

// Reset rewinds the channel for a fresh repetition over a new RNG. The
// per-run draws (gains, offsets, offset-dependent rotation ramps) are
// discarded, and so is the reference cache: a repetition draws a fresh
// population, so carrying references over would grow the cache by one
// reference per distinct ID without bound, while regenerating one is a
// cheap table walk (see signal.ModulateIDRef). The recycled rx planes
// carry over.
func (c *Signal) Reset(r *rng.Source) {
	c.rng = r
	clear(c.gains)
	clear(c.offsets)
	clear(c.refs)
	clear(c.rots)
}

// gain returns the tag's static channel coefficient, drawing it on first
// use: a uniform amplitude in [MinAmplitude, MaxAmplitude] at a uniform
// random phase.
func (c *Signal) gain(id tagid.ID) complex128 {
	if g, ok := c.gains[id]; ok {
		return g
	}
	var amp float64
	if c.cfg.Capability.CaptureEnabled() {
		// Link-budget mode: the amplitude is a pure hash of the tag's
		// placement, so the sample-domain power ratios in a collision match
		// the capability model's SINR arithmetic. Only the phase is random.
		amp = c.cfg.MaxAmplitude * c.cfg.Capability.Budget.Amplitude(id.HashPrefix())
	} else {
		amp = c.cfg.MinAmplitude + (c.cfg.MaxAmplitude-c.cfg.MinAmplitude)*c.rng.Float64()
	}
	phase := 2 * math.Pi * c.rng.Float64()
	g := cmplx.Rect(amp, phase)
	c.gains[id] = g
	return g
}

// offset returns the tag's static oscillator offset, drawing it on first
// use.
func (c *Signal) offset(id tagid.ID) float64 {
	if c.cfg.FrequencyOffsetMax <= 0 {
		return 0
	}
	if dw, ok := c.offsets[id]; ok {
		return dw
	}
	dw := (2*c.rng.Float64() - 1) * c.cfg.FrequencyOffsetMax
	c.offsets[id] = dw
	return dw
}

// reference returns the cached canonical (unit-gain) waveform of an ID in
// its compact phase-state form.
func (c *Signal) reference(id tagid.ID) *signal.Ref {
	if r, ok := c.refs[id]; ok {
		return r
	}
	r := signal.ModulateIDRef(id, c.cfg.SamplesPerBit)
	c.refs[id] = r
	return r
}

// expandRefs expands the references of ids into the channel's scratch
// planes, which stay valid until the next call.
func (c *Signal) expandRefs(ids []tagid.ID) []*signal.Plane {
	for len(c.refPlanes) < len(ids) {
		c.refPlanes = append(c.refPlanes, &signal.Plane{})
	}
	planes := c.refPlanes[:len(ids)]
	for i, id := range ids {
		c.reference(id).Expand(planes[i])
	}
	return planes
}

// rotation returns the cached frequency-offset phase ramp of an ID. The
// ramp is a pure function of the tag's static offset, so caching it cannot
// change any bit of the synthesized waveform.
func (c *Signal) rotation(id tagid.ID, dw float64, n int) *signal.Plane {
	if p, ok := c.rots[id]; ok && p.Len() >= n {
		return p
	}
	p := &signal.Plane{}
	signal.RotationInto(p, dw, n)
	c.rots[id] = p
	return p
}

// Observe implements Channel: it synthesises the received waveform for the
// slot and lets the reader's decoder classify it.
//
// Each transmitter's contribution (ref * e^(i*dw*n), then * gain) is
// accumulated straight into the slot buffer in transmitter order — the
// same per-sample operations, in the same order, as building the parts
// individually and summing them, so the synthesised waveform is
// bit-identical to the unfused form.
func (c *Signal) Observe(transmitters []tagid.ID) Observation {
	if len(transmitters) == 0 {
		return Observation{Kind: Empty}
	}
	n := 1 + tagid.Bits*c.cfg.SamplesPerBit
	if c.rxBuf == nil {
		if k := len(c.freeRx); k > 0 {
			c.rxBuf = c.freeRx[k-1]
			c.freeRx[k-1] = nil
			c.freeRx = c.freeRx[:k-1]
		} else {
			c.rxBuf = &signal.Plane{}
		}
	}
	rx := c.rxBuf
	rx.Reset(n)
	for i, id := range transmitters {
		g := c.gain(id)
		if c.cfg.PhaseJitter > 0 {
			j := (2*c.rng.Float64() - 1) * c.cfg.PhaseJitter
			g *= signal.Cis(j)
		}
		if dw := c.offset(id); dw != 0 {
			ref := c.expandRefs(transmitters[i : i+1])[0]
			rx.AccumulateScaledRotated(ref, c.rotation(id, dw, n), g)
		} else {
			rx.AccumulateScaledRef(c.reference(id), g)
		}
	}
	signal.AddNoisePlane(rx, c.cfg.NoiseSigma, c.rng)

	// The reader first attempts a plain single-ID decode; the CRC tells it
	// whether the slot was a clean singleton (Section III-B).
	//
	// Differential MSK demodulation exhibits a strong capture effect: the
	// stronger of two superimposed signals often decodes with a valid CRC.
	// Real readers detect this from the envelope — a lone MSK signal has
	// constant magnitude, a mix does not — so a decode is only trusted when
	// the envelope is flat to within the noise floor. A much weaker
	// interferer (below the envelope test's sensitivity) is genuinely
	// captured: the reader reads the strong tag and the weak one retries.
	id, decoded := signal.DecodeIDPlane(rx, c.cfg.SamplesPerBit)
	if decoded && signal.EnvelopeFlatPlane(rx, c.cfg.NoiseSigma) {
		return Observation{Kind: Singleton, ID: id}
	}
	// The record keeps the received plane, so the accumulator is handed
	// off: the next Observe grabs one from the free list or allocates.
	c.rxBuf = nil
	// One allocation backs both ID lists: the members, then room for as
	// many cancellations, so Subtract appends without allocating.
	k := len(transmitters)
	ids := make([]tagid.ID, 2*k)
	copy(ids, transmitters)
	m := &signalMixed{
		chan_:   c,
		wave:    rx,
		members: ids[:k:k],
		known:   ids[k:k],
	}
	if decoded && len(transmitters) > 1 && c.cfg.Capability.CaptureEnabled() && m.Contains(id) {
		// The demodulator pulled a valid ID out of a non-flat envelope: the
		// dominant constituent was captured through the collision. With the
		// capability model on, that is a first-class observation — the ID is
		// delivered and the recording stays as the cascade's residual.
		return Observation{Kind: Captured, ID: id, Mix: m}
	}
	return Observation{Kind: Collision, Mix: m}
}

// ReleaseMixed implements Releaser: a resolved collision record hands its
// plane back for reuse. Recycling only touches buffers whose contents
// are dead, so it cannot change any observable bit.
func (c *Signal) ReleaseMixed(m Mixed) {
	sm, ok := m.(*signalMixed)
	if !ok || sm.wave == nil {
		return
	}
	c.freeRx = append(c.freeRx, sm.wave)
	sm.wave = nil
}

// signalState is the persistent channel state captured by SnapshotState: the
// per-tag gains and oscillator offsets drawn so far. The reference cache is
// pure (no RNG involvement) and is deliberately not captured.
type signalState struct {
	gains   map[tagid.ID]complex128
	offsets map[tagid.ID]float64
}

var _ Stateful = (*Signal)(nil)

// SnapshotState implements Stateful.
func (c *Signal) SnapshotState() any {
	st := &signalState{
		gains:   make(map[tagid.ID]complex128, len(c.gains)),
		offsets: make(map[tagid.ID]float64, len(c.offsets)),
	}
	for id, g := range c.gains {
		st.gains[id] = g
	}
	for id, dw := range c.offsets {
		st.offsets[id] = dw
	}
	return st
}

// RestoreState implements Stateful.
func (c *Signal) RestoreState(state any) {
	st, ok := state.(*signalState)
	if !ok {
		return
	}
	c.gains = make(map[tagid.ID]complex128, len(st.gains))
	c.offsets = make(map[tagid.ID]float64, len(st.offsets))
	for id, g := range st.gains {
		c.gains[id] = g
	}
	for id, dw := range st.offsets {
		c.offsets[id] = dw
	}
}

// signalMixed is a recorded collision waveform plus the set of identified
// constituents the reader has marked for cancellation. Membership is a
// linear scan: record multiplicities are small in steady state, and even a
// deep bootstrap collision's scan is noise next to the least-squares fits
// Decode runs.
type signalMixed struct {
	chan_   *Signal
	wave    *signal.Plane // nil once released back to the channel
	members []tagid.ID
	known   []tagid.ID
}

var _ Mixed = (*signalMixed)(nil)

func (m *signalMixed) Contains(id tagid.ID) bool {
	for _, v := range m.members {
		if v == id {
			return true
		}
	}
	return false
}

func (m *signalMixed) Subtract(id tagid.ID) {
	for _, k := range m.known {
		if k == id {
			return
		}
	}
	m.known = append(m.known, id)
}

// Decode re-encodes the known constituents, jointly estimates their complex
// gains inside the recording by least squares, cancels them, and attempts a
// CRC-verified decode of the residual. This is the ANC resolution step of
// Section IV-B performed on real samples.
func (m *signalMixed) Decode() (tagid.ID, bool) {
	if len(m.known) == 0 || m.wave == nil {
		return tagid.ID{}, false
	}
	if max := m.chan_.cfg.MaxCancel; max > 0 && len(m.known) > max-1 {
		// The decoder's capability is lambda superimposed signals in total:
		// lambda-1 cancellations plus the residual.
		return tagid.ID{}, false
	}
	c := m.chan_
	var residual *signal.Plane
	if c.cfg.FrequencyOffsetMax > 0 {
		// Free-running oscillators: peel the known constituents one at a
		// time with the joint gain-and-offset estimator, cancelling in place
		// in the channel's residual plane after the first peel.
		residual = m.wave
		for _, ref := range c.expandRefs(m.known) {
			gain, dw := signal.EstimateGainAndOffsetPlane(residual, ref, c.cfg.SamplesPerBit)
			residual = signal.CancelWithOffsetIntoPlane(&c.resBuf, residual, ref, gain, dw)
		}
	} else {
		refs := c.expandRefs(m.known)
		c.gainsBuf = c.ls.EstimateGainsPlane(c.gainsBuf[:0], m.wave, refs)
		if c.gainsBuf == nil {
			return tagid.ID{}, false
		}
		residual = signal.CancelIntoPlane(&c.resBuf, m.wave, refs, c.gainsBuf)
	}
	id, ok := signal.DecodeIDPlane(residual, c.cfg.SamplesPerBit)
	if !ok {
		return tagid.ID{}, false
	}
	if !m.Contains(id) {
		// A decode that passes CRC but names a tag that never transmitted in
		// this slot is a false positive (probability ~2^-16); discard it.
		return tagid.ID{}, false
	}
	return id, true
}

func (m *signalMixed) Multiplicity() int { return len(m.members) }

// Remaining implements Residual. Subtract deduplicates, but callers may
// subtract IDs that never transmitted here, so clamp at zero.
func (m *signalMixed) Remaining() int {
	if n := len(m.members) - len(m.known); n > 0 {
		return n
	}
	return 0
}

// CloneMixed implements Cloner. The waveform and member list are immutable
// after construction and stay shared; the cancellation set is copied.
func (m *signalMixed) CloneMixed() Mixed {
	c := *m
	if m.known != nil {
		c.known = append(make([]tagid.ID, 0, len(m.known)), m.known...)
	}
	return &c
}
