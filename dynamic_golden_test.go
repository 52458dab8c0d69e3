package ancrfid_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
)

// dynamicGolden pins the dynamic-population entry points bit-for-bit: one
// SHA-256 per (protocol, channel, workers) cell covering a RunDynamic
// campaign (burst arrivals and departures, periodic snapshots), a RunChaos
// campaign (crash-restart, so Restore runs), and a scripted session that
// admits and revokes multi-ID batches mid-frame around a Snapshot/Restore.
// Each part hashes the report, the byte-exact JSONL trace and the registry
// dump. testdata/differential.golden pins batch runs only; this file pins
// the Admit, Revoke and Restore paths.
//
// Regenerate (only when intentionally changing observable behaviour) with:
//
//	UPDATE_GOLDEN=1 go test -run TestDynamicGolden .
const dynamicGolden = "testdata/dynamic.golden"

type dynamicCase struct {
	proto   string
	channel string // "abstract" or "signal"
	workers int
}

func (c dynamicCase) key() string {
	return fmt.Sprintf("%s/%s/workers=%d", c.proto, c.channel, c.workers)
}

func dynamicCases() []dynamicCase {
	var cases []dynamicCase
	for _, proto := range allProtocols {
		for _, ch := range []string{"abstract", "signal"} {
			for _, workers := range differentialWorkers {
				cases = append(cases, dynamicCase{proto, ch, workers})
			}
		}
	}
	return cases
}

// dynamicBase is the campaign knob set of one cell; the signal channel runs
// a smaller population to keep the suite fast.
func dynamicBase(c dynamicCase) (ancrfid.SimConfig, ancrfid.WorkloadConfig) {
	cfg := ancrfid.SimConfig{Tags: 40, Runs: 2, Seed: 17, Workers: c.workers, PAckLoss: 0.05}
	wl := ancrfid.WorkloadConfig{
		Duration:        1500 * time.Millisecond,
		ArrivalRate:     8,
		Burst:           4,
		DepartureRate:   0.6,
		CheckpointEvery: 200 * time.Millisecond,
	}
	if c.channel == "signal" {
		cfg.Tags = 10
		cfg.NewChannel = signalChannel
		wl.ArrivalRate = 3
		wl.Burst = 3
		wl.Duration = time.Second
	}
	return cfg, wl
}

func signalChannel(r *ancrfid.RNG) ancrfid.Channel {
	return ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{NoiseSigma: 0.03, MaxCancel: 2}, r)
}

// hashObserved folds a value's %#v rendering, a trace and a registry dump
// into h.
func hashObserved(t *testing.T, h hash.Hash, v any, trace *bytes.Buffer, reg *ancrfid.Registry) {
	t.Helper()
	fmt.Fprintf(h, "%#v\n", v)
	h.Write(trace.Bytes())
	if _, err := reg.WriteTo(h); err != nil {
		t.Fatal(err)
	}
}

func dynamicHash(t *testing.T, c dynamicCase) string {
	t.Helper()
	p, err := ancrfid.ByName(c.proto)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := ancrfid.AsSession(p)
	if !ok {
		t.Fatalf("%s is not a session protocol", c.proto)
	}
	h := sha256.New()
	base, wl := dynamicBase(c)

	{
		var trace bytes.Buffer
		jsonl := ancrfid.NewJSONLTracer(&trace)
		reg := ancrfid.NewRegistry()
		cfg := ancrfid.DynamicSimConfig{Config: base, Workload: wl}
		cfg.Tracer, cfg.Metrics = jsonl, reg
		res, err := ancrfid.RunDynamic(sp, cfg)
		if err != nil {
			t.Fatalf("%s: RunDynamic: %v", c.key(), err)
		}
		if err := jsonl.Err(); err != nil {
			t.Fatal(err)
		}
		hashObserved(t, h, res, &trace, reg)
	}
	{
		var trace bytes.Buffer
		jsonl := ancrfid.NewJSONLTracer(&trace)
		reg := ancrfid.NewRegistry()
		cfg := ancrfid.ChaosConfig{Config: base, Workload: wl, CheckpointEvery: 16}
		cfg.Faults = ancrfid.FaultConfig{AckLoss: 0.1, CrashEvery: 40}
		cfg.Tracer, cfg.Metrics = jsonl, reg
		res, err := ancrfid.RunChaos(sp, cfg)
		if err != nil {
			t.Fatalf("%s: RunChaos: %v", c.key(), err)
		}
		if err := jsonl.Err(); err != nil {
			t.Fatal(err)
		}
		hashObserved(t, h, res, &trace, reg)
	}
	sessionScriptHash(t, h, sp, c.channel == "signal")
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sessionScriptHash drives one session through a fixed script of batch
// admissions and revocations (with duplicates, unknown IDs, already
// identified IDs and mid-frame departures) around a Snapshot/Restore, and
// hashes everything observable along the way.
func sessionScriptHash(t *testing.T, h hash.Hash, sp ancrfid.SessionProtocol, signal bool) {
	t.Helper()
	r := ancrfid.NewRNG(41)
	n, fresh := 30, 12
	var ch ancrfid.Channel
	if signal {
		n, fresh = 8, 4
		ch = signalChannel(r)
	} else {
		ch = ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r)
	}
	tags := ancrfid.Population(r, n)
	extra := ancrfid.Population(ancrfid.NewRNG(43), fresh)
	var trace bytes.Buffer
	jsonl := ancrfid.NewJSONLTracer(&trace)
	reg := ancrfid.NewRegistry()
	var identified []ancrfid.TagID
	env := &ancrfid.Env{
		RNG: r, Tags: tags, Channel: ch, Timing: ancrfid.ICodeTiming(),
		TxModel: ancrfid.TxBinomial, PAckLoss: 0.05,
		Tracer:       ancrfid.MultiTracer(jsonl, ancrfid.NewMetricsTracer(reg)),
		OnIdentified: func(id ancrfid.TagID, _ bool) { identified = append(identified, id) },
	}
	s := sp.Begin(env)
	var log strings.Builder
	step := func(k int) {
		for i := 0; i < k; i++ {
			done, err := s.Step()
			fmt.Fprintf(&log, "%t %v|", done, err)
		}
		fmt.Fprintf(&log, "\n%#v %d %d\n", s.Metrics(), s.Outstanding(), len(identified))
	}
	step(7)
	known := tags[0]
	if len(identified) > 0 {
		known = identified[0]
	}
	half := fresh / 2
	s.Admit([]ancrfid.TagID{extra[0], extra[1], extra[0], known, tags[n-1], extra[1]})
	step(3)
	s.Revoke([]ancrfid.TagID{tags[n-2], extra[half], tags[n-3], tags[n-2], extra[0]})
	step(5)
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Admit(extra[2:half])
	step(11)
	if err := s.Restore(cp); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "restored %d\n", s.Outstanding())
	s.Admit(append(append([]ancrfid.TagID(nil), extra[half:]...), extra[half:]...))
	s.Admit(extra[1:3])
	step(4)
	s.Revoke(append([]ancrfid.TagID{extra[fresh-1]}, tags[:n/3]...))
	step(40)
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	hashObserved(t, h, log.String(), &trace, reg)
}

// TestDynamicGolden pins the dynamic-population behaviour of every protocol
// over both channels and both campaign paths (sequential and pooled).
func TestDynamicGolden(t *testing.T) {
	cases := dynamicCases()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var sb strings.Builder
		sb.WriteString("# Capture hashes of RunDynamic + RunChaos + a scripted Admit/Revoke/Restore\n")
		sb.WriteString("# session per (protocol, channel, workers) cell. See dynamic_golden_test.go.\n")
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s %s\n", c.key(), dynamicHash(t, c))
		}
		if err := os.WriteFile(dynamicGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cells", dynamicGolden, len(cases))
		return
	}
	want := readGoldenFile(t, dynamicGolden)
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cells, expected %d", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			t.Parallel()
			if want[c.key()] == "" {
				t.Fatalf("no golden entry for %s", c.key())
			}
			if got := dynamicHash(t, c); got != want[c.key()] {
				t.Errorf("dynamic behaviour drifted:\n got %s\nwant %s", got, want[c.key()])
			}
		})
	}
}
