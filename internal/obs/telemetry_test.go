package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/channel"
)

// feedSyntheticRun drives a small hand-written event stream through a
// tracer: a run with one frame of three slots (empty, singleton, collision
// with a resolution), then frame-end decode work and a run end.
func feedSyntheticRun(tr Tracer) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.Emit(Event{Kind: RunStart, Label: "SYN", N1: 3})
	tr.Emit(Event{Kind: FrameStart, Seq: 0, N1: 1, N2: 3, At: ms(1)})
	tr.Emit(Event{Kind: SlotDone, Seq: 0, Sub: uint8(channel.Empty), At: ms(2)})
	tr.Emit(Event{Kind: TagIdentified, At: ms(3)})
	tr.Emit(Event{Kind: AckSent, Seq: 1, Sub: uint8(AckDirect), Flag: true, At: ms(3)})
	tr.Emit(Event{Kind: SlotDone, Seq: 1, Sub: uint8(channel.Singleton), N1: 1, N2: 1, At: ms(3)})
	tr.Emit(Event{Kind: RecordCreated, Seq: 2, N1: 2, N2: 1})
	tr.Emit(Event{Kind: SlotDone, Seq: 2, Sub: uint8(channel.Collision), N1: 2, N2: 1, At: ms(4)})
	// Frame-end resolution phase: cascade work after the last slot.
	tr.Emit(Event{Kind: CascadeStep, N1: 1, N2: 0})
	tr.Emit(Event{Kind: RecordResolved, Seq: 2, N1: 1})
	tr.Emit(Event{Kind: TagIdentified, Flag: true, At: ms(5)})
	tr.Emit(Event{Kind: EstimatorUpdate, N1: 1, F1: 3, N2: 2, At: ms(5)})
	tr.Emit(Event{Kind: RunEnd, Label: "SYN", Seq: 3, At: ms(6)})
}

// TestSpanBuilderHierarchy checks the span stream of the synthetic run:
// parent links resolve, intervals nest, the frame-end decode work lands in
// a resolution-phase span, and the campaign span closes last.
func TestSpanBuilderHierarchy(t *testing.T) {
	var spans []Span
	b := NewSpanBuilder(SpanSinkFunc(func(s Span) { spans = append(spans, s) }))
	feedSyntheticRun(b)
	b.Close()

	byID := make(map[uint64]Span, len(spans))
	count := map[SpanKind]int{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		byID[s.ID] = s
		count[s.Kind]++
	}
	for _, s := range spans {
		if s.Start > s.End {
			t.Errorf("span %d (%v): start %v > end %v", s.ID, s.Kind, s.Start, s.End)
		}
		if s.Kind == SpanCampaign {
			if s.Parent != 0 || s.ID != 1 {
				t.Errorf("campaign span must be ID 1 with no parent, got %+v", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%v): parent %d never emitted", s.ID, s.Kind, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%v) [%v,%v] outside parent %d (%v) [%v,%v]",
				s.ID, s.Kind, s.Start, s.End, p.ID, p.Kind, p.Start, p.End)
		}
	}
	if spans[len(spans)-1].Kind != SpanCampaign {
		t.Error("campaign span must close last")
	}
	want := map[SpanKind]int{
		SpanCampaign: 1, SpanRun: 1, SpanFrame: 1, SpanSlot: 3,
		SpanResolution: 1, SpanIdentify: 2, SpanAck: 1, SpanRecord: 1,
		SpanCascade: 1, SpanResolve: 1, SpanEstimate: 1,
	}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%v spans: got %d, want %d", k, count[k], n)
		}
	}
	// The resolution phase must hold the cascade/resolve instants and the
	// via-resolution identify.
	var resolution Span
	for _, s := range spans {
		if s.Kind == SpanResolution {
			resolution = s
		}
	}
	holds := 0
	for _, s := range spans {
		if s.Parent == resolution.ID {
			holds++
		}
	}
	if holds != 3 {
		t.Errorf("resolution phase holds %d instants, want 3 (cascade, resolve, identify)", holds)
	}
}

// TestSpanBuilderRestartRewind: a crash-restart rewinds the cursor; spans
// opened after the restart must still nest inside their parents.
func TestSpanBuilderRestartRewind(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var spans []Span
	b := NewSpanBuilder(SpanSinkFunc(func(s Span) { spans = append(spans, s) }))
	b.Emit(Event{Kind: RunStart, Label: "SYN", N1: 2})
	b.Emit(Event{Kind: SlotDone, Seq: 0, Sub: uint8(channel.Collision), N1: 2, At: ms(10)})
	b.Emit(Event{Kind: SessionCheckpoint, Seq: 0, At: ms(10)})
	b.Emit(Event{Kind: SlotDone, Seq: 1, Sub: uint8(channel.Collision), N1: 2, At: ms(20)})
	b.Emit(Event{Kind: FaultInjected, Sub: uint8(FaultCrash)})
	b.Emit(Event{Kind: ReaderRestart, Seq: 2, At: ms(10), N1: 0})
	b.Emit(Event{Kind: SlotDone, Seq: 1, Sub: uint8(channel.Singleton), N1: 1, At: ms(20)})
	b.Emit(Event{Kind: RunEnd, At: ms(20)})
	b.Close()

	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Start > s.End {
			t.Errorf("span %d (%v): start %v > end %v", s.ID, s.Kind, s.Start, s.End)
		}
		if s.Kind == SpanCampaign {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%v): parent %d never emitted", s.ID, s.Kind, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%v) [%v,%v] outside parent [%v,%v]",
				s.ID, s.Kind, s.Start, s.End, p.Start, p.End)
		}
	}
	// The replayed slot starts at the rewound cursor, not at the crash time.
	var replayed Span
	for _, s := range spans[4:] { // after the restart instant
		if s.Kind == SpanSlot {
			replayed = s
		}
	}
	if replayed.Start != ms(10) {
		t.Errorf("replayed slot starts at %v, want the checkpoint time 10ms", replayed.Start)
	}
}

// TestChromeTraceValidJSON: the exporter's output is a well-formed JSON
// array of trace events with the fields Perfetto needs.
func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	ct := NewChromeTrace(&buf)
	b := NewSpanBuilder(ct)
	feedSyntheticRun(b)
	b.Close()
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	for _, ev := range events {
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ph := ev["ph"].(string); ph {
		case "X":
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("duration event missing dur: %v", ev)
			}
		case "i":
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
}

// TestWritePrometheusFormat: the exposition declares a type for every
// family, mangles names into the rfid_ namespace and keeps histogram
// buckets cumulative.
func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetricsTracer(reg)
	feedSyntheticRun(tr)

	var buf bytes.Buffer
	if _, err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rfid_runs_completed_total counter\nrfid_runs_completed_total 1\n",
		"# TYPE rfid_hist_tx_per_slot histogram\n",
		"rfid_hist_tx_per_slot_bucket{le=\"+Inf\"} 3\n",
		"# TYPE rfid_sketch_ident_latency_us summary\n",
		"rfid_sketch_ident_latency_us{quantile=\"0.5\"}",
		"rfid_sketch_ident_latency_us_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets never decrease.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "rfid_hist_tx_per_slot_bucket{le=\"") || strings.Contains(line, "+Inf") {
			continue
		}
		var le, c int64
		if _, err := sscan2(line, &le, &c); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if c < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = c
	}
	// Two dumps are byte-identical.
	var buf2 bytes.Buffer
	if _, err := WritePrometheus(&buf2, reg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two expositions of the same registry differ")
	}
}

// sscan2 pulls le and count out of a bucket sample line.
func sscan2(line string, le, c *int64) (int, error) {
	i := strings.Index(line, "le=\"") + 4
	j := strings.Index(line[i:], "\"")
	k := strings.LastIndex(line, " ")
	n1, err := parseInt(line[i:i+j], le)
	if err != nil {
		return n1, err
	}
	return parseInt(line[k+1:], c)
}

func parseInt(s string, out *int64) (int, error) {
	var v int64
	neg := false
	for i := 0; i < len(s); i++ {
		if i == 0 && s[i] == '-' {
			neg = true
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return 0, &json.SyntaxError{}
		}
		v = v*10 + int64(s[i]-'0')
	}
	if neg {
		v = -v
	}
	*out = v
	return 1, nil
}

// TestRegistryDumpSorted: the text dump lists every metric name in sorted
// order and two dumps are byte-identical.
func TestRegistryDumpSorted(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetricsTracer(reg)
	feedSyntheticRun(tr)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		key, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %q is not key value", line)
		}
		names = append(names, key)
	}
	for i := 1; i < len(names); i++ {
		// Sub-keys of one metric (.count, .le.*, .p50...) may interleave
		// legally; the base-name sequence must be non-decreasing.
		a, b := baseName(names[i-1]), baseName(names[i])
		if a > b {
			t.Fatalf("dump not sorted: %q before %q", names[i-1], names[i])
		}
	}
	var buf2 bytes.Buffer
	if _, err := reg.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two dumps of the same registry differ")
	}
}

// baseName strips the dump suffixes the registry appends to histogram and
// sketch families.
func baseName(key string) string {
	for _, suf := range []string{".count", ".sum", ".p50", ".p90", ".p95", ".p99"} {
		if strings.HasSuffix(key, suf) {
			return strings.TrimSuffix(key, suf)
		}
	}
	if i := strings.Index(key, ".le."); i >= 0 {
		return key[:i]
	}
	return key
}

// TestSpanEmitNoAlloc: folding events into spans with a no-op sink must not
// allocate on the per-slot path (the builder's state is flat structs).
func TestSpanEmitNoAlloc(t *testing.T) {
	b := NewSpanBuilder(SpanSinkFunc(func(Span) {}))
	b.Emit(Event{Kind: RunStart, Label: "SYN", N1: 1})
	seq := 0
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(Event{Kind: TagIdentified, At: time.Duration(seq) * time.Millisecond})
		b.Emit(Event{Kind: SlotDone, Seq: seq, Sub: uint8(channel.Singleton), N1: 1,
			At: time.Duration(seq+1) * time.Millisecond})
		seq++
	})
	if allocs != 0 {
		t.Errorf("span emission allocates %v per slot, want 0", allocs)
	}
}
