package sim

import (
	"runtime"
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/fcat"
	"github.com/ancrfid/ancrfid/internal/rng"
)

// TestSignalRunFootprint bounds the heap one physical-layer inventory
// allocates: a 2 000-tag FCAT-2 run on a fresh signal channel configured
// as rfidsim -channel signal configures it (one worker, lambda 2). Each
// tag's reference is a compact signal.Ref and resolved recordings are
// recycled, so what the run allocates is mostly the rx planes of its
// unresolved recordings. The bound holds for every SignalConfig, not just
// this one: the channel keeps no per-tag plane (a cached 6 160 B plane per
// tag would add about 12 MB at 2 000 tags), and
// TestSignalResetBoundsReferenceCache in package channel fails if a
// map[tagid.ID]*signal.Plane field comes back.
func TestSignalRunFootprint(t *testing.T) {
	const limit = 10 << 20
	cfg := Config{Tags: 2000, Runs: 1, Seed: 1, Workers: 1, Lambda: 2,
		NewChannel: func(r *rng.Source) channel.Channel {
			return channel.NewSignal(channel.SignalConfig{NoiseSigma: 0.03, MaxCancel: 2}, r)
		}}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res, err := Run(fcat.New(fcat.Config{Lambda: 2}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	if res.Runs[0].Identified() != cfg.Tags {
		t.Fatalf("identified %d of %d tags", res.Runs[0].Identified(), cfg.Tags)
	}
	t.Logf("one 2000-tag FCAT-2 signal run allocates %.2f MB", float64(got)/(1<<20))
	if got > limit {
		t.Fatalf("one 2000-tag FCAT-2 signal run allocates %d B, want <= %d", got, limit)
	}
}
