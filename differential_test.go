package ancrfid_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ancrfid/ancrfid"
)

// differentialGolden is the capture-hash baseline of the protocol layer:
// one SHA-256 per (protocol, channel, seed, workers) cell covering the
// aggregated Result, the byte-exact JSONL trace, and the metrics-registry
// dump of a fixed campaign. The file was generated from the monolithic
// pre-session Run implementations; the session refactor must reproduce
// every hash bit-for-bit, which is the tentpole's equivalence proof.
//
// Regenerate (only when intentionally changing observable behaviour) with:
//
//	UPDATE_GOLDEN=1 go test -run TestDifferentialGolden .
const differentialGolden = "testdata/differential.golden"

// differentialSeeds are the campaign seeds of the differential suite.
var differentialSeeds = []uint64{3, 11, 29}

// differentialWorkers exercises the sequential and the pooled campaign path.
var differentialWorkers = []int{1, 8}

// differentialCase identifies one cell of the differential matrix.
type differentialCase struct {
	proto   string
	channel string // "abstract" or "signal"
	seed    uint64
	workers int
}

func (c differentialCase) key() string {
	return fmt.Sprintf("%s/%s/seed=%d/workers=%d", c.proto, c.channel, c.seed, c.workers)
}

func differentialCases() []differentialCase {
	var cases []differentialCase
	for _, proto := range allProtocols {
		for _, ch := range []string{"abstract", "signal"} {
			for _, seed := range differentialSeeds {
				for _, workers := range differentialWorkers {
					cases = append(cases, differentialCase{proto, ch, seed, workers})
				}
			}
		}
	}
	return cases
}

// differentialConfig builds the campaign config of one cell. The abstract
// channel runs a mid-size population; the signal channel (real waveform
// mixing) runs a small one to keep the suite fast. PAckLoss exercises the
// acknowledgement-retransmission path for the ALOHA-family protocols.
func differentialConfig(c differentialCase) ancrfid.SimConfig {
	cfg := ancrfid.SimConfig{
		Tags: 200, Runs: 2, Seed: c.seed, Workers: c.workers, PAckLoss: 0.05,
	}
	if c.channel == "signal" {
		cfg.Tags = 25
		cfg.NewChannel = func(r *ancrfid.RNG) ancrfid.Channel {
			return ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{
				NoiseSigma: 0.03,
				MaxCancel:  2,
			}, r)
		}
	}
	return cfg
}

// differentialHash runs one cell and hashes everything observable about it.
func differentialHash(t *testing.T, c differentialCase) string {
	t.Helper()
	p, err := ancrfid.ByName(c.proto)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	jsonl := ancrfid.NewJSONLTracer(&trace)
	reg := ancrfid.NewRegistry()
	cfg := differentialConfig(c)
	cfg.Tracer = jsonl
	cfg.Metrics = reg
	res, err := ancrfid.Run(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatalf("%s: trace write: %v", c.key(), err)
	}
	var dump strings.Builder
	if _, err := reg.WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n", res)
	h.Write(trace.Bytes())
	h.Write([]byte(dump.String()))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readGoldenFile parses a capture-hash golden file of "key hash" lines.
func readGoldenFile(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with UPDATE_GOLDEN=1): %v", path, err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDifferentialGolden pins the complete observable behaviour of every
// protocol over both channels, three seeds and two worker counts against
// hashes captured from the pre-refactor monolithic Run implementations.
// A mismatch means the session restructuring changed results, trace bytes
// or registry contents — exactly what the tentpole forbids.
func TestDifferentialGolden(t *testing.T) {
	cases := differentialCases()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(differentialGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		sb.WriteString("# Capture hashes of Result + JSONL trace + registry dump per\n")
		sb.WriteString("# (protocol, channel, seed, workers) cell. See differential_test.go.\n")
		for _, c := range cases {
			sb.WriteString(c.key())
			sb.WriteByte(' ')
			sb.WriteString(differentialHash(t, c))
			sb.WriteByte('\n')
		}
		if err := os.WriteFile(differentialGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d cells", differentialGolden, len(cases))
		return
	}
	want := readGoldenFile(t, differentialGolden)
	if len(want) != len(cases) {
		t.Fatalf("golden has %d cells, expected %d", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			t.Parallel()
			got := differentialHash(t, c)
			if want[c.key()] == "" {
				t.Fatalf("no golden entry for %s", c.key())
			}
			if got != want[c.key()] {
				t.Errorf("behaviour drifted from pre-session baseline:\n got %s\nwant %s", got, want[c.key()])
			}
		})
	}
}
