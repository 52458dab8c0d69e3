package channel

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func newSignalChan(seed uint64) (*Signal, *rng.Source) {
	r := rng.New(seed)
	return NewSignal(SignalConfig{}, r), r
}

func TestSignalEmptyAndSingleton(t *testing.T) {
	ch, r := newSignalChan(1)
	tags := ids(r, 1)
	if obs := ch.Observe(nil); obs.Kind != Empty {
		t.Fatalf("empty slot -> %v", obs.Kind)
	}
	obs := ch.Observe(tags)
	if obs.Kind != Singleton || obs.ID != tags[0] {
		t.Fatalf("singleton not decoded: %v", obs.Kind)
	}
}

func TestSignalTwoCollisionResolution(t *testing.T) {
	ch, r := newSignalChan(2)
	resolved := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		tags := ids(r, 2)
		obs := ch.Observe(tags)
		if obs.Kind != Collision {
			// Physical capture of a much stronger tag is possible; it is
			// still a correct read.
			if obs.Kind == Singleton && (obs.ID == tags[0] || obs.ID == tags[1]) {
				continue
			}
			t.Fatalf("unexpected observation %v", obs.Kind)
		}
		if obs.Mix.Multiplicity() != 2 {
			t.Fatalf("multiplicity %d", obs.Mix.Multiplicity())
		}
		obs.Mix.Subtract(tags[0])
		got, ok := obs.Mix.Decode()
		if ok {
			if got != tags[1] {
				t.Fatalf("resolved the wrong ID")
			}
			resolved++
		}
	}
	if resolved < trials*2/3 {
		t.Fatalf("only %d/%d two-collisions resolved at default SNR", resolved, trials)
	}
}

func TestSignalDecodeWithoutSubtraction(t *testing.T) {
	ch, r := newSignalChan(3)
	tags := ids(r, 2)
	obs := ch.Observe(tags)
	if obs.Kind != Collision {
		t.Skip("capture occurred; nothing to test")
	}
	if _, ok := obs.Mix.Decode(); ok {
		t.Fatal("record decoded with no known constituents")
	}
}

func TestSignalMaxCancel(t *testing.T) {
	r := rng.New(4)
	ch := NewSignal(SignalConfig{MaxCancel: 2}, r)
	tags := ids(r, 3)
	obs := ch.Observe(tags)
	if obs.Kind != Collision {
		t.Skip("capture occurred")
	}
	// lambda=2 decoder: cancelling 2 constituents of a 3-collision exceeds
	// its capability.
	obs.Mix.Subtract(tags[0])
	obs.Mix.Subtract(tags[1])
	if _, ok := obs.Mix.Decode(); ok {
		t.Fatal("3-collision resolved despite MaxCancel=2")
	}
}

func TestSignalThreeCollisionWithCapableDecoder(t *testing.T) {
	r := rng.New(5)
	ch := NewSignal(SignalConfig{MaxCancel: 3, NoiseSigma: 0.02}, r)
	resolved := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		tags := ids(r, 3)
		obs := ch.Observe(tags)
		if obs.Kind != Collision {
			continue
		}
		obs.Mix.Subtract(tags[0])
		obs.Mix.Subtract(tags[1])
		if got, ok := obs.Mix.Decode(); ok {
			if got != tags[2] {
				t.Fatal("resolved the wrong ID")
			}
			resolved++
		}
	}
	if resolved < trials/2 {
		t.Fatalf("only %d/%d three-collisions resolved with lambda=3", resolved, trials)
	}
}

func TestSignalGainStability(t *testing.T) {
	// A tag's channel gain is stable across slots (static tags), so the
	// same tag observed twice decodes both times.
	ch, r := newSignalChan(6)
	tags := ids(r, 1)
	for i := 0; i < 5; i++ {
		obs := ch.Observe(tags)
		if obs.Kind != Singleton || obs.ID != tags[0] {
			t.Fatalf("slot %d: singleton not stable", i)
		}
	}
}

func TestSignalSubtractIdempotent(t *testing.T) {
	ch, r := newSignalChan(7)
	tags := ids(r, 2)
	obs := ch.Observe(tags)
	if obs.Kind != Collision {
		t.Skip("capture occurred")
	}
	obs.Mix.Subtract(tags[0])
	obs.Mix.Subtract(tags[0])
	got, ok := obs.Mix.Decode()
	if !ok || got != tags[1] {
		t.Fatal("repeated subtraction broke resolution")
	}
}

func TestSignalPhaseJitterStillResolves(t *testing.T) {
	r := rng.New(8)
	ch := NewSignal(SignalConfig{PhaseJitter: 0.5}, r)
	resolved, collisions := 0, 0
	for i := 0; i < 20; i++ {
		tags := ids(r, 2)
		obs := ch.Observe(tags)
		if obs.Kind != Collision {
			continue
		}
		collisions++
		obs.Mix.Subtract(tags[0])
		if _, ok := obs.Mix.Decode(); ok {
			resolved++
		}
	}
	// The per-record LS gain estimate absorbs the phase offset.
	if collisions > 0 && resolved < collisions/2 {
		t.Fatalf("phase jitter broke resolution: %d/%d", resolved, collisions)
	}
}

func TestSignalConfigDefaults(t *testing.T) {
	r := rng.New(9)
	ch := NewSignal(SignalConfig{}, r)
	if ch.cfg.SamplesPerBit <= 0 || ch.cfg.MinAmplitude <= 0 || ch.cfg.MaxAmplitude < ch.cfg.MinAmplitude {
		t.Fatalf("defaults not applied: %+v", ch.cfg)
	}
}

func TestSignalFrequencyOffsetResolution(t *testing.T) {
	// With free-running tag oscillators, the offset-aware decoder still
	// resolves two-collisions.
	r := rng.New(20)
	ch := NewSignal(SignalConfig{FrequencyOffsetMax: 0.04, NoiseSigma: 0.02}, r)
	resolved, collisions := 0, 0
	for i := 0; i < 20; i++ {
		tags := ids(r, 2)
		obs := ch.Observe(tags)
		if obs.Kind != Collision {
			continue
		}
		collisions++
		obs.Mix.Subtract(tags[0])
		if got, ok := obs.Mix.Decode(); ok {
			if got != tags[1] {
				t.Fatal("resolved the wrong ID")
			}
			resolved++
		}
	}
	if collisions == 0 {
		t.Skip("no collisions observed")
	}
	if resolved < collisions*2/3 {
		t.Fatalf("only %d/%d drifting collisions resolved", resolved, collisions)
	}
}

func TestSignalFrequencyOffsetSingletons(t *testing.T) {
	// Offsets within the differential demodulator's tolerance must not
	// break plain singleton reads.
	r := rng.New(21)
	ch := NewSignal(SignalConfig{FrequencyOffsetMax: 0.04}, r)
	for i := 0; i < 30; i++ {
		tags := ids(r, 1)
		obs := ch.Observe(tags)
		if obs.Kind != Singleton || obs.ID != tags[0] {
			t.Fatalf("singleton decode failed under oscillator offset (kind %v)", obs.Kind)
		}
	}
}

// TestSignalResetBoundsReferenceCache reuses one channel across
// repetitions over fresh populations, as the campaign runner does through
// Resettable. The reference cache must hold at most one population, and
// every observation and decode must match a newly constructed channel's.
func TestSignalResetBoundsReferenceCache(t *testing.T) {
	const pop, reps = 40, 6
	reused := NewSignal(SignalConfig{MaxCancel: 2}, rng.New(1000))
	for rep := 0; rep < reps; rep++ {
		seed := uint64(1000 + rep)
		if rep > 0 {
			reused.Reset(rng.New(seed))
		}
		fresh := NewSignal(SignalConfig{MaxCancel: 2}, rng.New(seed))
		tags := ids(rng.New(seed+500), pop)
		for i := 0; i+2 <= len(tags); i += 2 {
			for _, tx := range [][]tagid.ID{tags[i : i+1], tags[i : i+2]} {
				got, want := reused.Observe(tx), fresh.Observe(tx)
				if got.Kind != want.Kind || got.ID != want.ID {
					t.Fatalf("rep %d: observation %v/%v, fresh channel %v/%v", rep, got.Kind, got.ID, want.Kind, want.ID)
				}
				if got.Mix == nil {
					continue
				}
				got.Mix.Subtract(tx[0])
				want.Mix.Subtract(tx[0])
				gotID, gotOK := got.Mix.Decode()
				wantID, wantOK := want.Mix.Decode()
				if gotID != wantID || gotOK != wantOK {
					t.Fatalf("rep %d: decode %v/%v, fresh channel %v/%v", rep, gotID, gotOK, wantID, wantOK)
				}
			}
		}
		if len(reused.refs) > pop {
			t.Fatalf("rep %d: reference cache holds %d waveforms, population is %d", rep, len(reused.refs), pop)
		}
	}
}
