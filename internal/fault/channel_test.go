package fault

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// observeTrace runs n slots of random transmitter subsets against ch and
// returns a fingerprint of each observation. The transmitter schedule is
// derived from its own generator so it is identical across replays.
func observeTrace(ch channel.Channel, ids []tagid.ID, seed uint64, n int) []string {
	r := rng.New(seed)
	out := make([]string, 0, n)
	for s := 0; s < n; s++ {
		var tx []tagid.ID
		for _, id := range ids {
			if r.Float64() < 0.1 {
				tx = append(tx, id)
			}
		}
		ob := ch.Observe(tx)
		fp := ob.Kind.String()
		if ob.Kind == channel.Singleton {
			fp += ":" + ob.ID.String()
		}
		if ob.Kind == channel.Collision && ob.Mix != nil {
			if y, ok := ob.Mix.Decode(); ok {
				fp += ":decode:" + y.String()
			} else {
				fp += ":undecodable"
			}
		}
		out = append(out, fp)
	}
	return out
}

// TestChannelRewind: snapshotting the fault channel mid-run and restoring
// it replays bit-identical observations — the property the chaos harness's
// crash-restart relies on.
func TestChannelRewind(t *testing.T) {
	cfg := Config{
		Burst:            Burst{Duty: 0.2, MeanBad: 4},
		MuteProb:         0.1,
		StuckProb:        0.1,
		CorruptSingleton: 0.1,
		CorruptDecode:    0.2,
	}
	mk := func() (*Channel, []tagid.ID) {
		r := rng.New(77)
		ids := tagid.Population(r, 40)
		inner := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
		fch := WrapChannel(inner, New(cfg, 13, 0))
		fch.AdmitAll(ids)
		return fch, ids
	}

	fch, ids := mk()
	_ = observeTrace(fch, ids, 1, 50) // advance
	st := fch.SnapshotState()
	want := observeTrace(fch, ids, 2, 50)
	fch.RestoreState(st)
	got := observeTrace(fch, ids, 2, 50)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d after restore: %s, want %s", i, got[i], want[i])
		}
	}

	// A snapshot survives multiple restores (the chaos harness restores the
	// same mark after every crash in a cycle).
	fch.RestoreState(st)
	again := observeTrace(fch, ids, 2, 50)
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("slot %d after second restore: %s, want %s", i, again[i], want[i])
		}
	}
}

// TestChannelRosterRewind: Admit/Revoke changes after a snapshot are rolled
// back by a restore.
func TestChannelRosterRewind(t *testing.T) {
	r := rng.New(5)
	ids := tagid.Population(r, 10)
	inner := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
	fch := WrapChannel(inner, New(Config{StuckProb: 1, StuckTxProb: 1}, 1, 0))
	fch.AdmitAll(ids[:5])

	st := fch.SnapshotState()
	fch.Admit(ids[7])
	fch.Revoke(ids[0])
	fch.RestoreState(st)

	// With StuckProb 1 and StuckTxProb 1 every admitted tag transmits every
	// slot, so the roster is observable through the collision multiplicity.
	ob := fch.Observe(nil)
	if ob.Kind != channel.Collision {
		t.Fatalf("observation kind %v, want collision from stuck roster", ob.Kind)
	}
	if m := ob.Mix.Multiplicity(); m != 5 {
		t.Fatalf("stuck roster multiplicity %d after restore, want 5", m)
	}
}

// TestChannelRosterSet: Admit joins a tag once, Revoke of a tag off the
// roster changes nothing, the roster keeps its admission order, and a
// restore brings the roster back for later admissions and revocations.
func TestChannelRosterSet(t *testing.T) {
	r := rng.New(6)
	ids := tagid.Population(r, 6)
	inner := channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
	fch := WrapChannel(inner, New(Config{StuckProb: 1, StuckTxProb: 1}, 1, 0))
	roster := func(want ...tagid.ID) {
		t.Helper()
		if len(fch.stuck) != len(want) {
			t.Fatalf("roster %v, want %v", fch.stuck, want)
		}
		for i, id := range want {
			if fch.stuck[i] != id {
				t.Fatalf("roster %v, want %v", fch.stuck, want)
			}
		}
	}

	fch.Admit(ids[0])
	fch.Admit(ids[1])
	fch.Admit(ids[0])
	fch.Admit(ids[2])
	roster(ids[0], ids[1], ids[2])

	fch.Revoke(ids[4])
	roster(ids[0], ids[1], ids[2])
	fch.Revoke(ids[1])
	roster(ids[0], ids[2])
	fch.Revoke(ids[1])
	roster(ids[0], ids[2])

	st := fch.SnapshotState()
	fch.Revoke(ids[0])
	fch.Admit(ids[3])
	fch.Admit(ids[1])
	roster(ids[2], ids[3], ids[1])
	fch.RestoreState(st)
	roster(ids[0], ids[2])

	// Dedup and removal work on the restored roster too.
	fch.Admit(ids[2])
	fch.Admit(ids[3])
	roster(ids[0], ids[2], ids[3])
	fch.Revoke(ids[0])
	roster(ids[2], ids[3])
}
