package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// lastEventKind is the highest declared EventKind; TestEventKindCoverage
// fails when a kind is added past it without moving it.
const lastEventKind = FleetActivity

// TestEventKindCoverage checks every event kind against every consumer: a
// switch over kinds does not make the compiler catch a consumer that misses
// one, so this loop does.
func TestEventKindCoverage(t *testing.T) {
	if got := (lastEventKind + 1).String(); got != "unknown" {
		t.Fatalf("kind %d is named %q: move lastEventKind", lastEventKind+1, got)
	}
	for k := RunStart; k <= lastEventKind; k++ {
		ev := Event{
			Kind: k, Sub: 1, Flag: true, At: 3 * time.Millisecond,
			Seq: 7, N1: 2, N2: 1, N3: 0, F1: 0.25, F2: 4.5,
			ID: testID(1), ID2: testID(2), Label: "X", Err: "e",
		}
		t.Run(k.String(), func(t *testing.T) {
			if k.String() == "unknown" {
				t.Fatalf("kind %d has no name", k)
			}

			var jl bytes.Buffer
			j := NewJSONL(&jl)
			j.Emit(ev)
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(jl.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasSuffix(jl.String(), "\n") {
				t.Fatalf("JSONL wrote %d lines: %q", len(lines), jl.String())
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
				t.Fatalf("JSONL line %q is not JSON: %v", lines[0], err)
			}
			if m["ev"] != k.String() || len(m) <= 3 {
				t.Errorf("JSONL line %q: want ev %q and a payload", lines[0], k.String())
			}

			var tl bytes.Buffer
			NewTimeline(&tl).Emit(ev)
			if n := strings.Count(tl.String(), "\n"); n != 1 || strings.TrimSpace(tl.String()) == "" {
				t.Errorf("Timeline wrote %q, want one line", tl.String())
			}

			var buf Buffer
			buf.Emit(ev)
			var got []Event
			buf.Replay(Func(func(e Event) { got = append(got, e) }))
			if len(got) != 1 || got[0] != ev {
				t.Errorf("Buffer round trip: got %+v, want %+v", got, ev)
			}

			// The counting consumers must accept every kind.
			NewMetricsTracer(NewRegistry()).Emit(ev)
			NewHealthMonitor(HealthConfig{}).Emit(ev)

			spans := 0
			sb := NewSpanBuilder(SpanSinkFunc(func(Span) { spans++ }))
			sb.Emit(ev)
			sb.Emit(Event{Kind: RunStart})
			sb.Emit(ev)
			sb.Close()
			if spans == 0 {
				t.Error("SpanBuilder emitted nothing")
			}
		})
	}
}
