package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/registry"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/sim"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// TestTimedChannelTransparent runs small FCAT-2 campaigns as the workload
// configures them and again with the timing decorator, on both channels
// (the runner's default abstract channel and the workload's signal
// channel), sequentially, on the pool and in streaming mode (which releases
// recordings through the decorator), and requires bit-identical results.
func TestTimedChannelTransparent(t *testing.T) {
	p, err := registry.ByName("FCAT-2")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []campaignWorkload{{salt: 1}, fcatSignal} {
		for _, tc := range []struct {
			workers int
			stream  bool
		}{{1, false}, {2, false}, {1, true}} {
			cfg := w.config(7, 0, 3)
			cfg.Tags, cfg.Workers, cfg.Stream = 300, tc.workers, tc.stream
			plain, err := sim.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var probes chanTotals
			cfg.NewChannel = probes.newChannel(w.buildChannel())
			timed, err := sim.Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, timed) {
				t.Errorf("salt %d workers %d stream %v: decorated campaign differs:\nplain %+v\ntimed %+v",
					w.salt, tc.workers, tc.stream, plain.Runs, timed.Runs)
			}
			probes.collect(time.Now())
			var slots int
			for _, m := range timed.Runs {
				slots += m.TotalSlots()
			}
			if got := probes.stats.observeN; got != int64(slots) {
				t.Errorf("salt %d: decorator counted %d observations, campaign %d slots", w.salt, got, slots)
			}
			if probes.stats.decodeN == 0 || probes.stats.subtractN == 0 {
				t.Errorf("salt %d: decorator saw no decode or subtract: %+v", w.salt, probes.stats)
			}
		}
	}
}

// TestTimedChannelCheckpoint checks the Stateful and Cloner forwarding: a
// session on the decorated signal channel, snapshotted mid-inventory and
// restored, replays exactly what it did the first time.
func TestTimedChannelCheckpoint(t *testing.T) {
	sp, err := registry.Session("FCAT-2")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	tags := tagid.Population(r, 200)
	var st chanStats
	env := &protocol.Env{
		RNG:     r,
		Tags:    tags,
		Channel: &timedChannel{inner: fcatSignal.channel(r), st: &st},
		Timing:  air.ICode(),
		TxModel: protocol.TxBinomial,
	}
	sess := sp.Begin(env)
	for i := 0; i < 60; i++ {
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	finish := func() protocol.Metrics {
		for {
			done, err := sess.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return sess.Metrics()
			}
		}
	}
	first := finish()
	if err := sess.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if again := finish(); again != first {
		t.Fatalf("restored session diverged:\nfirst %+v\nagain %+v", first, again)
	}
	if first.DirectIDs+first.ResolvedIDs != len(tags) {
		t.Fatalf("identified %d of %d tags", first.DirectIDs+first.ResolvedIDs, len(tags))
	}
	if _, ok := channel.CloneMixed(&timedMixed{inner: uncloneable{}, st: &st}); ok {
		t.Fatal("cloning a wrapper over an uncloneable recording succeeded")
	}
}

// uncloneable is a recording without a Cloner implementation.
type uncloneable struct{}

func (uncloneable) Contains(tagid.ID) bool   { return false }
func (uncloneable) Subtract(tagid.ID)        {}
func (uncloneable) Decode() (tagid.ID, bool) { return tagid.ID{}, false }
func (uncloneable) Multiplicity() int        { return 2 }
