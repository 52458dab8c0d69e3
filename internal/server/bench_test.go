package server

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkServerStep measures one protocol step through the full hosted
// path — shard queue round trip, supervised execution, ledger accounting —
// the per-request overhead the API adds on top of the raw ~20ns
// protocol.Session.Step (BenchmarkSessionStep).
func BenchmarkServerStep(b *testing.B) {
	s, err := New(Config{
		Dir:    b.TempDir(),
		NoSync: true,
		Shards: 1,
		// Keep checkpoint writes out of the measured loop.
		CheckpointEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Kill()
	sh := s.shardFor("bench-1")
	_, err = sh.do("bench-1", func() (any, error) {
		// A huge explicit slot budget keeps the continuous-monitoring loop
		// from tripping the automatic budget's no-progress guard at b.N
		// scale.
		h, err := newHosted("bench-1", Spec{Protocol: "DFSA", Seed: 1, Tags: 200, MaxSlots: 1 << 30}, sh.tracer)
		if err != nil {
			return nil, err
		}
		sh.sessions["bench-1"] = &entry{h: h, lastUsed: time.Now()}
		return nil, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.do("bench-1", func() (any, error) {
			e := sh.sessions["bench-1"]
			_, _, err := e.h.step(1, time.Time{})
			return nil, err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointWrite measures one durable checkpoint replacement —
// encode, CRC, temp-file write, atomic rename — with fsync off so the
// gate tracks the CPU cost, not the runner's disk. The fsynced variant
// below exists for local measurement and is not gated.
func BenchmarkCheckpointWrite(b *testing.B) {
	benchCheckpointWrite(b, true)
}

func BenchmarkCheckpointWriteSync(b *testing.B) {
	benchCheckpointWrite(b, false)
}

func benchCheckpointWrite(b *testing.B, noSync bool) {
	store, err := OpenStore(b.TempDir(), nil, noSync)
	if err != nil {
		b.Fatal(err)
	}
	rec := testRecord()
	rec.ID = "bench-ckpt"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i + 1)
		if _, err := store.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerRecover measures startup recovery: New over a directory
// of recoverSessions journaled FCAT-2 sessions (recoverTags tags,
// recoverSteps steps each) until every one of them is live again — the
// checkpoint scan plus the parallel, untraced journal replay.
func BenchmarkServerRecover(b *testing.B) {
	const recoverSessions, recoverTags, recoverSteps = 16, 1000, 1024
	dir := b.TempDir()
	store, err := OpenStore(dir, nil, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < recoverSessions; i++ {
		h, err := newHosted(fmt.Sprintf("rec-%02d", i), Spec{Protocol: "FCAT-2", Seed: uint64(i + 1), Tags: recoverTags}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := h.step(recoverSteps, time.Time{}); err != nil {
			b.Fatal(err)
		}
		if _, err := store.Write(h.record()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Dir: dir, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Live() != recoverSessions {
			b.Fatalf("recovered %d sessions, want %d", s.Live(), recoverSessions)
		}
		s.Kill()
		b.StartTimer()
	}
}
