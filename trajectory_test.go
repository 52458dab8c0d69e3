package ancrfid_test

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// trajectoryFields are the fields every BENCH_trajectory.json entry
// carries, no more and no fewer. parent and change are medians over
// alternating parent/change runs of the benchmark on one machine.
var trajectoryFields = []string{
	"pr", "commit", "date", "machine", "workload", "metric", "parent", "change", "unit",
}

// TestBenchTrajectorySchema checks BENCH_trajectory.json, the committed
// record of each performance claim: every entry has exactly the schema's
// fields, names a BENCHMARK.json workload and end-to-end metric in that
// metric's unit, and the pr field never decreases down the file.
func TestBenchTrajectorySchema(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &bench)
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range bench.EndToEnd {
		units[m.Name] = m.Unit
	}

	var raw []map[string]json.RawMessage
	readJSON(t, "BENCH_trajectory.json", &raw)
	var entries []struct {
		PR       int     `json:"pr"`
		Commit   string  `json:"commit"`
		Date     string  `json:"date"`
		Machine  string  `json:"machine"`
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Parent   float64 `json:"parent"`
		Change   float64 `json:"change"`
		Unit     string  `json:"unit"`
	}
	readJSON(t, "BENCH_trajectory.json", &entries)
	if len(raw) == 0 {
		t.Fatal("BENCH_trajectory.json has no entries")
	}
	want := append([]string(nil), trajectoryFields...)
	sort.Strings(want)
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	prevPR := 0
	for i, fields := range raw {
		keys := make([]string, 0, len(fields))
		for k := range fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("entry %d fields %v, want %v", i, keys, want)
		}
		e := entries[i]
		if e.PR < prevPR {
			t.Errorf("entry %d: pr %d after pr %d", i, e.PR, prevPR)
		}
		prevPR = e.PR
		if !commit.MatchString(e.Commit) {
			t.Errorf("entry %d: commit %q is not an abbreviated hash", i, e.Commit)
		}
		if _, err := time.Parse(time.DateOnly, e.Date); err != nil {
			t.Errorf("entry %d: date %q: %v", i, e.Date, err)
		}
		if e.Machine == "" {
			t.Errorf("entry %d: empty machine", i)
		}
		if !workloads[e.Workload] {
			t.Errorf("entry %d: workload %q not in BENCHMARK.json", i, e.Workload)
		}
		if unit, ok := units[e.Metric]; !ok {
			t.Errorf("entry %d: metric %q is not an end-to-end metric of BENCHMARK.json", i, e.Metric)
		} else if e.Unit != unit {
			t.Errorf("entry %d: %s in %q, BENCHMARK.json says %q", i, e.Metric, e.Unit, unit)
		}
		if !(e.Parent > 0 && e.Change > 0) {
			t.Errorf("entry %d: medians %g → %g must be positive", i, e.Parent, e.Change)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
