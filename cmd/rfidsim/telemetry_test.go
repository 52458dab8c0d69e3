package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ancrfid/ancrfid"
)

// prometheusGolden pins the exact Prometheus text exposition of a fixed
// small campaign (FCAT-2, 25 tags, 1 run, seed 3). It is a format contract:
// any byte that changes here changes what every scraper in the field sees,
// so changes must be deliberate. Regenerate by running the same campaign
// through ancrfid.WritePrometheus.
const prometheusGolden = `# TYPE rfid_acks_lost_total counter
rfid_acks_lost_total 0
# TYPE rfid_acks_sent_total counter
rfid_acks_sent_total 25
# TYPE rfid_adverts_total counter
rfid_adverts_total 4
# TYPE rfid_cascade_steps_total counter
rfid_cascade_steps_total 25
# TYPE rfid_checkpoints_total counter
rfid_checkpoints_total 0
# TYPE rfid_estimator_updates_total counter
rfid_estimator_updates_total 5
# TYPE rfid_frames_total counter
rfid_frames_total 4
# TYPE rfid_hist_cascade_depth histogram
rfid_hist_cascade_depth_bucket{le="0"} 0
rfid_hist_cascade_depth_bucket{le="1"} 8
rfid_hist_cascade_depth_bucket{le="3"} 12
rfid_hist_cascade_depth_bucket{le="+Inf"} 12
rfid_hist_cascade_depth_sum 16
rfid_hist_cascade_depth_count 12
# TYPE rfid_hist_record_multiplicity histogram
rfid_hist_record_multiplicity_bucket{le="0"} 0
rfid_hist_record_multiplicity_bucket{le="1"} 0
rfid_hist_record_multiplicity_bucket{le="3"} 17
rfid_hist_record_multiplicity_bucket{le="7"} 67
rfid_hist_record_multiplicity_bucket{le="15"} 68
rfid_hist_record_multiplicity_bucket{le="31"} 69
rfid_hist_record_multiplicity_bucket{le="+Inf"} 69
rfid_hist_record_multiplicity_sum 316
rfid_hist_record_multiplicity_count 69
# TYPE rfid_hist_tx_per_slot histogram
rfid_hist_tx_per_slot_bucket{le="0"} 42
rfid_hist_tx_per_slot_bucket{le="1"} 55
rfid_hist_tx_per_slot_bucket{le="3"} 72
rfid_hist_tx_per_slot_bucket{le="7"} 122
rfid_hist_tx_per_slot_bucket{le="15"} 123
rfid_hist_tx_per_slot_bucket{le="31"} 124
rfid_hist_tx_per_slot_bucket{le="+Inf"} 124
rfid_hist_tx_per_slot_sum 329
rfid_hist_tx_per_slot_count 124
# TYPE rfid_ids_direct_total counter
rfid_ids_direct_total 13
# TYPE rfid_ids_resolved_total counter
rfid_ids_resolved_total 12
# TYPE rfid_records_created_total counter
rfid_records_created_total 69
# TYPE rfid_records_resolved_total counter
rfid_records_resolved_total 12
# TYPE rfid_records_spent_total counter
rfid_records_spent_total 0
# TYPE rfid_runs_completed_total counter
rfid_runs_completed_total 1
# TYPE rfid_runs_failed_total counter
rfid_runs_failed_total 0
# TYPE rfid_runs_started_total counter
rfid_runs_started_total 1
# TYPE rfid_sketch_cascade_depth summary
rfid_sketch_cascade_depth{quantile="0.5"} 1
rfid_sketch_cascade_depth{quantile="0.9"} 2
rfid_sketch_cascade_depth{quantile="0.95"} 2
rfid_sketch_cascade_depth{quantile="0.99"} 2
rfid_sketch_cascade_depth_sum 16
rfid_sketch_cascade_depth_count 12
# TYPE rfid_sketch_ident_latency_us summary
rfid_sketch_ident_latency_us{quantile="0.5"} 137491
rfid_sketch_ident_latency_us{quantile="0.9"} 285835
rfid_sketch_ident_latency_us{quantile="0.95"} 285835
rfid_sketch_ident_latency_us{quantile="0.99"} 300127
rfid_sketch_ident_latency_us_sum 3953176
rfid_sketch_ident_latency_us_count 25
# TYPE rfid_slots_collision_total counter
rfid_slots_collision_total 69
# TYPE rfid_slots_empty_total counter
rfid_slots_empty_total 42
# TYPE rfid_slots_singleton_total counter
rfid_slots_singleton_total 13
# TYPE rfid_tags_arrived_total counter
rfid_tags_arrived_total 0
# TYPE rfid_tags_departed_total counter
rfid_tags_departed_total 0
# TYPE rfid_tags_departed_unread_total counter
rfid_tags_departed_unread_total 0
# TYPE rfid_tx_total counter
rfid_tx_total 329
`

// goldenRegistry runs the golden campaign and returns its registry.
func goldenRegistry(t *testing.T) *ancrfid.Registry {
	t.Helper()
	p, err := ancrfid.ByName("FCAT-2")
	if err != nil {
		t.Fatal(err)
	}
	reg := ancrfid.NewRegistry()
	if _, err := ancrfid.Run(p, ancrfid.SimConfig{Tags: 25, Runs: 1, Seed: 3, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestPrometheusGolden pins the /metrics payload byte for byte.
func TestPrometheusGolden(t *testing.T) {
	var buf strings.Builder
	if _, err := ancrfid.WritePrometheus(&buf, goldenRegistry(t)); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != prometheusGolden {
		t.Errorf("Prometheus exposition drifted from golden.\n--- got\n%s\n--- want\n%s", got, prometheusGolden)
	}
}

// TestTelemetryServer exercises the -serve handler end to end over
// httptest: the Prometheus exposition, the health probe (both states) and
// expvar.
func TestTelemetryServer(t *testing.T) {
	reg := goldenRegistry(t)
	health := ancrfid.NewHealthMonitor(ancrfid.HealthConfig{})
	srv := httptest.NewServer(newTelemetryServer(reg, health))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), sb.String()
	}

	code, ctype, body := get("/metrics")
	if code != 200 || body != prometheusGolden {
		t.Errorf("/metrics: code %d, body drifted from golden", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Errorf("/metrics content type %q lacks the exposition version", ctype)
	}

	code, _, body = get("/healthz")
	if code != 200 {
		t.Errorf("/healthz on a healthy monitor: code %d, want 200", code)
	}
	var snap ancrfid.HealthSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/healthz body is not JSON: %v\n%s", err, body)
	}
	if !snap.Healthy || snap.Score != 100 {
		t.Errorf("healthy monitor snapshot: %+v", snap)
	}

	// Degrade the monitor past the healthy threshold and probe again.
	for i := 0; i < 3; i++ {
		health.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceRunStart})
		health.Emit(ancrfid.TraceEvent{Kind: ancrfid.TraceRunEnd, Err: "boom"})
	}
	code, _, _ = get("/healthz")
	if code != 503 {
		t.Errorf("/healthz on a degraded monitor: code %d, want 503", code)
	}

	code, _, body = get("/debug/vars")
	if code != 200 || !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars: code %d, valid JSON %v", code, json.Valid([]byte(body)))
	}
}

// TestRunSpansOutput: the -spans flag writes a Perfetto-loadable JSON array
// whose stream ends with the campaign span.
func TestRunSpansOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := run([]string{"-protocol", "SCAT-2", "-tags", "60", "-runs", "2",
		"-seed", "5", "-spans", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("spans output is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no span events written")
	}
	last := events[len(events)-1]
	if last["name"] != "campaign" {
		t.Errorf("last event %v, want the campaign span", last["name"])
	}
	runs := 0
	for _, ev := range events {
		if name, _ := ev["name"].(string); strings.HasPrefix(name, "run ") {
			runs++
		}
	}
	if runs != 2 {
		t.Errorf("%d run spans in the trace, want 2", runs)
	}
}

// TestRunServeFlag: a campaign with -serve on an ephemeral port runs to
// completion (the endpoint itself is covered by TestTelemetryServer).
func TestRunServeFlag(t *testing.T) {
	if err := run([]string{"-protocol", "DFSA", "-tags", "50", "-runs", "1",
		"-serve", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}
