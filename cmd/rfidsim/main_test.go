package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	if err := run([]string{"-protocol", "FCAT-2", "-tags", "200", "-runs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBaseline(t *testing.T) {
	if err := run([]string{"-protocol", "DFSA", "-tags", "150", "-runs", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoisyAbstract(t *testing.T) {
	if err := run([]string{"-protocol", "FCAT-3", "-tags", "150", "-runs", "1",
		"-punresolvable", "0.5", "-pcorrupt", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSignalChannel(t *testing.T) {
	if err := run([]string{"-protocol", "FCAT-2", "-channel", "signal",
		"-tags", "60", "-runs", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "NOPE"},
		{"-channel", "quantum", "-tags", "10"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestRunDynamicRejectsFaultFlags checks that fault flags on a
// continuous-inventory run are refused unless chaos mode consumes them;
// before, the dynamic driver silently ran fault-free.
func TestRunDynamicRejectsFaultFlags(t *testing.T) {
	dyn := []string{"-protocol", "DFSA", "-tags", "40", "-runs", "1", "-seed", "5"}
	for _, extra := range [][]string{
		{"-arrival-rate", "50", "-duration", "500ms", "-fault-ack-loss", "0.5", "-fault-mute", "0.3"},
		{"-departure-rate", "0.5", "-fault-stuck", "0.1"},
		{"-duration", "500ms", "-fault-crash-every", "64"},
	} {
		args := append(append([]string(nil), dyn...), extra...)
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "-chaos") {
			t.Errorf("args %v: want a -chaos error, got %v", args, err)
		}
	}
	// The same shapes are accepted with -chaos, and without fault flags.
	if err := run(append(dyn, "-arrival-rate", "50", "-duration", "500ms", "-fault-ack-loss", "0.5", "-chaos")); err != nil {
		t.Errorf("chaos mode: %v", err)
	}
	if err := run(append(dyn, "-arrival-rate", "50", "-duration", "500ms")); err != nil {
		t.Errorf("fault-free dynamic mode: %v", err)
	}
}

func TestRunGen2AndAckLoss(t *testing.T) {
	if err := run([]string{"-protocol", "FCAT-2", "-tags", "150", "-runs", "1",
		"-timing", "gen2", "-ackloss", "0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCRDSA(t *testing.T) {
	if err := run([]string{"-protocol", "CRDSA", "-tags", "150", "-runs", "1", "-lambda", "8"}); err != nil {
		t.Fatal(err)
	}
}

// knownEvents is the JSONL schema's closed event-name set; a new event name
// must be added here and to docs/observability.md.
var knownEvents = map[string]bool{
	"run_start": true, "run_end": true, "frame": true, "advert": true,
	"slot": true, "identify": true, "ack": true, "record": true,
	"cascade": true, "resolve": true, "estimate": true,
	"arrival": true, "departure": true, "checkpoint": true,
	"fault": true, "quarantine": true, "restart": true,
}

func TestRunTraceJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-protocol", "FCAT-2", "-tags", "100", "-runs", "2",
		"-trace", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines int
	var starts, ends int
	for sc.Scan() {
		lines++
		var ev struct {
			V   int    `json:"v"`
			Ev  string `json:"ev"`
			Run int    `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if ev.V != 1 {
			t.Fatalf("line %d: schema version %d, want 1", lines, ev.V)
		}
		if !knownEvents[ev.Ev] {
			t.Fatalf("line %d: unknown event %q", lines, ev.Ev)
		}
		if ev.Run < 0 || ev.Run > 1 {
			t.Fatalf("line %d: run index %d out of range", lines, ev.Run)
		}
		switch ev.Ev {
		case "run_start":
			starts++
		case "run_end":
			ends++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("got %d run_start / %d run_end events, want 2 / 2", starts, ends)
	}
}

// TestRunTraceGolden pins the exact JSONL bytes of a tiny deterministic
// campaign. A diff here means the trace schema or the simulation's RNG draw
// order changed; regenerate with UPDATE_GOLDEN=1 go test ./cmd/rfidsim -run
// Golden and bump obs.SchemaVersion if the change is not purely additive.
func TestRunTraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-protocol", "FCAT-2", "-tags", "6", "-runs", "1",
		"-seed", "7", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (regenerate with UPDATE_GOLDEN=1)\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunTraceWorkersIdentical checks the CLI end to end: the same campaign
// traced with one worker and with four must write byte-identical JSONL and
// metrics files.
func TestRunTraceWorkersIdentical(t *testing.T) {
	dir := t.TempDir()
	files := func(workers string) (string, string) {
		trace := filepath.Join(dir, "trace-"+workers+".jsonl")
		metrics := filepath.Join(dir, "metrics-"+workers+".txt")
		if err := run([]string{"-protocol", "FCAT-2", "-tags", "120", "-runs", "6",
			"-seed", "5", "-ackloss", "0.1", "-workers", workers,
			"-trace", trace, "-metrics", metrics}); err != nil {
			t.Fatal(err)
		}
		return trace, metrics
	}
	t1, m1 := files("1")
	t4, m4 := files("4")
	for _, pair := range [][2]string{{t1, t4}, {m1, m4}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ (%d vs %d bytes)", pair[0], pair[1], len(a), len(b))
		}
	}
}

func TestRunMetricsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := run([]string{"-protocol", "SCAT-2", "-tags", "120", "-runs", "2",
		"-metrics", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty metrics dump")
	}
	values := make(map[string]float64)
	for _, line := range lines {
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("metrics line %q is not \"key value\"", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: value does not parse: %v", line, err)
		}
		values[key] = f
	}
	if values["runs.completed"] != 2 {
		t.Fatalf("runs.completed = %v, want 2", values["runs.completed"])
	}
	if values["ids.direct"]+values["ids.resolved"] != 2*120 {
		t.Fatalf("ids.direct+ids.resolved = %v, want %d",
			values["ids.direct"]+values["ids.resolved"], 2*120)
	}
}

func TestRunTimelineAndProgress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.txt")
	if err := run([]string{"-protocol", "DFSA", "-tags", "80", "-runs", "1",
		"-timeline", path, "-progress"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "run DFSA tags=80") {
		t.Fatalf("timeline missing run header:\n%.400s", data)
	}
	if !strings.Contains(string(data), "run end:") {
		t.Fatalf("timeline missing run end:\n%.400s", data)
	}
}

func TestRunBadTiming(t *testing.T) {
	if err := run([]string{"-timing", "warp", "-tags", "10"}); err == nil {
		t.Fatal("unknown timing should fail")
	}
}

// captureStdout redirects os.Stdout around fn and returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestRunChaosMode(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-protocol", "FCAT-2", "-chaos", "-tags", "30", "-runs", "2",
			"-arrival-rate", "25", "-departure-rate", "0.3", "-duration", "1s",
			"-fault-ack-loss", "0.15", "-fault-burst-duty", "0.1", "-fault-crash-every", "96"})
	})
	if err != nil {
		t.Fatalf("chaos run failed: %v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"chaos mode",
		"accounting      admitted",
		"invariants      phantom IDs 0, duplicate identifications 0, accounting violations 0",
		"throughput",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, out)
		}
	}
}

// TestRunChaosNoProgressPartial: a shape no protocol can make progress
// against (every tag mute) burns its slot budget without identifying
// anything and must fail with ErrNoProgress — yet still print the failing
// run's partial report and the campaign accounting.
func TestRunChaosNoProgressPartial(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-protocol", "FCAT-2", "-chaos", "-tags", "20", "-runs", "2",
			"-duration", "300ms", "-max-slots", "20", "-fault-mute", "1"})
	})
	if err == nil {
		t.Fatalf("all-mute chaos run should fail with no progress; output:\n%s", out)
	}
	if !strings.Contains(err.Error(), "no progress") &&
		!strings.Contains(err.Error(), "slot budget") {
		t.Errorf("error %q does not mention the budget/no-progress cause", err)
	}
	for _, want := range []string{"run 0 FAILED after", "accounting      admitted"} {
		if !strings.Contains(out, want) {
			t.Errorf("partial-result output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSeveritySweepRejectsObserverOutputs checks that observer outputs
// the severity sweep would leave empty are refused, naming the flags, and
// that no output file is created.
func TestRunSeveritySweepRejectsObserverOutputs(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-tags", "100", "-runs", "1", "-sweep-severity", "2"}
	for _, tc := range []struct {
		name  string
		extra []string
		flags []string
	}{
		{"trace", []string{"-trace", "t.jsonl"}, []string{"-trace"}},
		{"timeline", []string{"-timeline", "t.txt"}, []string{"-timeline"}},
		{"spans", []string{"-spans", "s.json"}, []string{"-spans"}},
		{"metrics", []string{"-metrics", "m.txt"}, []string{"-metrics"}},
		{"trace+timeline", []string{"-trace", "t.jsonl", "-timeline", "t.txt"}, []string{"-trace", "-timeline"}},
		{"all", []string{"-metrics", "-", "-spans", "s.json", "-timeline", "-", "-trace", "t.jsonl"},
			[]string{"-trace", "-timeline", "-spans", "-metrics"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			extra := append([]string(nil), tc.extra...)
			for i := 1; i < len(extra); i += 2 {
				if extra[i] != "-" {
					extra[i] = filepath.Join(dir, tc.name+"-"+extra[i])
				}
			}
			err := run(append(append([]string(nil), sweep...), extra...))
			if err == nil {
				t.Fatal("want an error, got nil")
			}
			for _, f := range tc.flags {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not name %s", err, f)
				}
			}
			for i := 1; i < len(extra); i += 2 {
				if extra[i] == "-" {
					continue
				}
				if _, serr := os.Stat(extra[i]); !os.IsNotExist(serr) {
					t.Errorf("%s was created (stat: %v)", extra[i], serr)
				}
			}
		})
	}
}

func TestRunSeveritySweep(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-sweep-severity", "2", "-tags", "200", "-runs", "2", "-seed", "7"})
	})
	if err != nil {
		t.Fatalf("severity sweep failed: %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "severity sweep") {
		t.Fatalf("missing sweep header:\n%s", out)
	}
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 {
			if _, err := strconv.ParseFloat(f[0], 64); err == nil {
				rows = append(rows, f)
			}
		}
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 sweep rows, got %d:\n%s", len(rows), out)
	}
	first := func(col int, r []string) float64 {
		v, err := strconv.ParseFloat(r[col], 64)
		if err != nil {
			t.Fatalf("row %v column %d: %v", r, col, err)
		}
		return v
	}
	for col := 3; col <= 4; col++ {
		if lo, hi := first(col, rows[len(rows)-1]), first(col, rows[0]); lo >= hi {
			t.Errorf("column %d: throughput %.1f at max severity not below %.1f at zero", col, lo, hi)
		}
	}
	// Health-score columns stay within [0, 100] at every severity.
	for _, r := range rows {
		for col := 5; col <= 6; col++ {
			if v := first(col, r); v < 0 || v > 100 {
				t.Errorf("column %d: health score %v out of [0,100] in row %v", col, v, r)
			}
		}
	}
}
