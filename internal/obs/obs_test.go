package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func testID(b byte) tagid.ID {
	var id tagid.ID
	id[0] = b
	return id
}

// emitOneOfEach drives an 18-event run through t with distinctive values.
func emitOneOfEach(t Tracer) {
	t.Emit(Event{Kind: RunStart, Label: "FCAT-2", N1: 10})
	t.Emit(Event{Kind: FrameStart, Seq: 0, N1: 1, N2: 30, F1: 0.25})
	t.Emit(Event{Kind: Advertisement, Seq: 0, F1: 0.5})
	t.Emit(Event{Kind: SlotDone, Seq: 0, Sub: uint8(channel.Collision), N1: 3, N2: 0})
	t.Emit(Event{Kind: RecordCreated, Seq: 0, N1: 3, N2: 3})
	t.Emit(Event{Kind: SlotDone, Seq: 1, Sub: uint8(channel.Singleton), N1: 1, N2: 1})
	t.Emit(Event{Kind: TagIdentified, ID: testID(1)})
	t.Emit(Event{Kind: AckSent, Seq: 1, ID: testID(1), Sub: uint8(AckDirect), Flag: true})
	t.Emit(Event{Kind: CascadeStep, ID: testID(1), N1: 1, N2: 0})
	t.Emit(Event{Kind: RecordResolved, Seq: 0, ID: testID(2), ID2: testID(1), N1: 1})
	t.Emit(Event{Kind: TagIdentified, ID: testID(2), Flag: true})
	t.Emit(Event{Kind: AckSent, Seq: 1, ID: testID(2), Sub: uint8(AckResolvedIndex), Flag: false})
	t.Emit(Event{Kind: SlotDone, Seq: 2, Sub: uint8(channel.Empty), N1: 0, N2: 2})
	t.Emit(Event{Kind: EstimatorUpdate, N1: 1, F1: 8.5, F2: 7.0, N2: 2})
	t.Emit(Event{Kind: TagArrival, ID: testID(3), At: 5 * time.Millisecond, N1: 2})
	t.Emit(Event{Kind: SessionCheckpoint, Seq: 0, At: 6 * time.Millisecond, N1: 2, N2: 2})
	t.Emit(Event{Kind: TagDeparture, ID: testID(3), At: 9 * time.Millisecond, Flag: false})
	t.Emit(Event{Kind: RunEnd, Label: "FCAT-2", Seq: 3, N1: 1, N2: 1, N3: 1})
}

func TestMetricsTracerCounts(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetricsTracer(reg)
	emitOneOfEach(mt)

	want := map[string]int64{
		MetricRunsStarted:     1,
		MetricRunsCompleted:   1,
		MetricRunsFailed:      0,
		MetricSlotsEmpty:      1,
		MetricSlotsSingleton:  1,
		MetricSlotsCollision:  1,
		MetricFrames:          1,
		MetricAdverts:         1,
		MetricTxTotal:         4,
		MetricIDsDirect:       1,
		MetricIDsResolved:     1,
		MetricAcksSent:        2,
		MetricAcksLost:        1,
		MetricRecordsCreated:  1,
		MetricRecordsResolved: 1,
		MetricRecordsSpent:    0,
		MetricCascadeSteps:    1,

		MetricTagsArrived:        1,
		MetricTagsDeparted:       1,
		MetricTagsDepartedUnread: 1,
		MetricCheckpoints:        1,
	}
	for name, v := range want {
		if got := reg.Value(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := reg.Histogram(HistTxPerSlot).Count(); got != 3 {
		t.Errorf("tx histogram count %d, want 3", got)
	}
	if got := reg.Histogram(HistTxPerSlot).Sum(); got != 4 {
		t.Errorf("tx histogram sum %d, want 4", got)
	}
}

func TestMetricsTracerFailedRun(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetricsTracer(reg)
	mt.Emit(Event{Kind: RunStart, Label: "X", N1: 1})
	mt.Emit(Event{Kind: RunEnd, Label: "X", Err: "boom"})
	if got := reg.Value(MetricRunsFailed); got != 1 {
		t.Errorf("runs.failed = %d, want 1", got)
	}
	if got := reg.Value(MetricRunsCompleted); got != 0 {
		t.Errorf("runs.completed = %d, want 0", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			h := reg.Histogram("hist")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i % 17))
			}
		}()
	}
	wg.Wait()
	if got := reg.Value("shared"); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
	if got := reg.Histogram("hist").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 50} {
		h.Observe(v)
	}
	cases := []struct {
		bucket int
		want   int64
	}{
		{0, 1}, // 0
		{1, 1}, // 1
		{2, 2}, // 2, 3
		{3, 2}, // 4..7 -> 4, 7
		{4, 1}, // 8..15 -> 8
	}
	for _, c := range cases {
		if got := h.Bucket(c.bucket); got != c.want {
			t.Errorf("bucket %d = %d, want %d", c.bucket, got, c.want)
		}
	}
	// The out-of-range value lands in the last bucket.
	if got := h.Bucket(histBuckets - 1); got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
}

func TestRegistryWriteToParsesAsKeyValue(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetricsTracer(reg)
	emitOneOfEach(mt)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	prev := ""
	for sc.Scan() {
		lines++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("line %q is not `key value`", sc.Text())
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Fatalf("value in %q is not an integer: %v", sc.Text(), err)
		}
		if fields[0] <= prev && !strings.Contains(fields[0], ".le.") &&
			!strings.HasSuffix(fields[0], ".count") && !strings.HasSuffix(fields[0], ".sum") {
			t.Errorf("counter keys not sorted: %q after %q", fields[0], prev)
		}
		prev = fields[0]
	}
	if lines == 0 {
		t.Fatal("empty dump")
	}
}

func TestJSONLValidAndVersioned(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	emitOneOfEach(j)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	evs := map[string]int{}
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		if v, ok := m["v"].(float64); !ok || int(v) != SchemaVersion {
			t.Fatalf("line %q missing schema version %d", sc.Text(), SchemaVersion)
		}
		ev, ok := m["ev"].(string)
		if !ok {
			t.Fatalf("line %q missing ev", sc.Text())
		}
		if run, ok := m["run"].(float64); !ok || int(run) != 0 {
			t.Fatalf("line %q: run %v, want 0", sc.Text(), m["run"])
		}
		evs[ev]++
	}
	for _, ev := range []string{"run_start", "run_end", "frame", "advert", "slot",
		"identify", "ack", "record", "cascade", "resolve", "estimate",
		"arrival", "departure", "checkpoint"} {
		if evs[ev] == 0 {
			t.Errorf("no %q event emitted", ev)
		}
	}
}

func TestJSONLRunCounter(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	emitOneOfEach(j)
	emitOneOfEach(j)
	sc := bufio.NewScanner(&buf)
	last := -1
	for sc.Scan() {
		var m struct {
			Run int `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		last = m.Run
	}
	if last != 1 {
		t.Fatalf("last run index %d, want 1", last)
	}
}

func TestTimelineRenders(t *testing.T) {
	var buf bytes.Buffer
	tl := NewTimeline(&buf)
	emitOneOfEach(tl)
	if err := tl.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"run FCAT-2 tags=10",
		"frame 1 size=30",
		"[0000] C tx=3",
		"[0001] S tx=1",
		"[0002] . tx=0",
		"ack direct",
		"ack resolved-index",
		"LOST",
		"record @0 mult=3",
		"resolve @0 ->",
		"estimate 8.5",
		"arrive",
		"depart",
		"UNREAD",
		"checkpoint 0 at",
		"run end: 3 slots",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
}

func TestFuncAndMulti(t *testing.T) {
	var slots, resolves int
	h := Func(func(ev Event) {
		switch ev.Kind {
		case SlotDone:
			slots++
		case RecordResolved:
			resolves++
		}
	})
	reg := NewRegistry()
	m := Multi(nil, h, NewMetricsTracer(reg))
	emitOneOfEach(m)
	if slots != 3 || resolves != 1 {
		t.Errorf("hooks saw %d slots, %d resolves; want 3, 1", slots, resolves)
	}
	if got := reg.Value(MetricSlotsCollision); got != 1 {
		t.Errorf("multi did not reach metrics tracer: collisions %d", got)
	}
	// Multi with zero or one live tracer collapses.
	if Multi() != nil || Multi(nil) != nil {
		t.Error("Multi of no tracers should be nil")
	}
	// Func values are not comparable; a *Buffer is.
	single := &Buffer{}
	if Multi(nil, single) != Tracer(single) {
		t.Error("Multi of one tracer should be that tracer")
	}
}

func TestAckKindString(t *testing.T) {
	for k, want := range map[AckKind]string{
		AckDirect:        "direct",
		AckResolvedIndex: "resolved-index",
		AckResolvedID:    "resolved-id",
		AckKind(99):      "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("AckKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
