package server

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func testRecord() *Record {
	ids := tagid.Population(rng.New(7), 4)
	return &Record{
		ID:    "sess-1",
		Seq:   3,
		Spec:  Spec{Protocol: "FCAT-2", Seed: 42, Tags: 50},
		Steps: 900,
		Ops: []Op{
			{AtStep: 100, Admit: []string{formatID(ids[0]), formatID(ids[1])}},
			{AtStep: 100, Revoke: []string{formatID(ids[2])}},
			{AtStep: 640, Admit: []string{formatID(ids[3])}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rec := testRecord()
	data, err := EncodeCheckpoint(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.Seq != rec.Seq || got.Steps != rec.Steps || len(got.Ops) != len(rec.Ops) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, rec)
	}
	if got.Spec != rec.Spec.withDefaults() && got.Spec != rec.Spec {
		t.Fatalf("spec mismatch: got %+v want %+v", got.Spec, rec.Spec)
	}
}

func TestCheckpointTypedErrors(t *testing.T) {
	rec := testRecord()
	good, err := EncodeCheckpoint(rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCheckpointTruncated},
		{"short header", good[:8], ErrCheckpointTruncated},
		{"truncated payload", good[:len(good)-5], ErrCheckpointTruncated},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrCheckpointMagic},
		{"bad version", func() []byte {
			d := append([]byte(nil), good...)
			d[4] = 99
			return d
		}(), ErrCheckpointVersion},
		{"flipped payload bit", func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-3] ^= 0x40
			return d
		}(), ErrCheckpointChecksum},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAA), ErrCheckpointRecord},
		{"huge declared length", func() []byte {
			d := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(d[5:9], maxCheckpointPayload+1)
			return d
		}(), ErrCheckpointRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCheckpoint(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeCheckpoint: got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRecordValidate(t *testing.T) {
	base := testRecord()
	mutate := func(f func(*Record)) *Record {
		r := *base
		r.Ops = append([]Op(nil), base.Ops...)
		f(&r)
		return &r
	}
	cases := []struct {
		name string
		rec  *Record
		want string
	}{
		{"empty id", mutate(func(r *Record) { r.ID = "" }), "session id"},
		{"long id", mutate(func(r *Record) { r.ID = strings.Repeat("x", maxSessionIDLen+1) }), "session id"},
		{"too many steps", mutate(func(r *Record) { r.Steps = maxRecordSteps + 1 }), "replay bound"},
		{"ops out of order", mutate(func(r *Record) { r.Ops[2].AtStep = 50 }), "after step"},
		{"op beyond steps", mutate(func(r *Record) { r.Ops[2].AtStep = r.Steps + 1 }), "beyond checkpointed step"},
		{"bad hex id", mutate(func(r *Record) { r.Ops[0].Admit = []string{"zz"} }), "hex digits"},
		{"bad spec", mutate(func(r *Record) { r.Spec.Tags = -1 }), "tags"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Protocol: "DFSA", Tags: 10}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Protocol: "", Tags: 10},
		{Protocol: "DFSA", Tags: maxSpecTags + 1},
		{Protocol: "DFSA", Tags: 10, Channel: "quantum"},
		{Protocol: "DFSA", Tags: 10, Lambda: 99},
		{Protocol: "DFSA", Tags: 10, NoiseSigma: -1},
		{Protocol: "DFSA", Tags: 10, MaxSlots: -1},
		{Protocol: "DFSA", Tags: 10, PAckLoss: 1},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
}

func TestFormatParseID(t *testing.T) {
	ids := tagid.Population(rng.New(3), 16)
	for _, id := range ids {
		s := formatID(id)
		if len(s) != 24 {
			t.Fatalf("formatID length %d, want 24", len(s))
		}
		back, err := parseID(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("parseID(formatID(%v)) = %v", id, back)
		}
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 24), strings.Repeat("a", 23)} {
		if _, err := parseID(bad); err == nil {
			t.Errorf("parseID(%q) accepted", bad)
		}
	}
}

// TestReplayIdentDigest checks that recovery compares the replayed
// identification history against the record's digest. Records are taken
// from live FCAT-2 sessions on both channels, edited, written to a store
// and recovered by a fresh server; a divergent record must be quarantined
// with ErrReplayDiverged, a faithful one recovered at its step count.
func TestReplayIdentDigest(t *testing.T) {
	live := func(channel string) *Record {
		h, err := newHosted("dg-"+channel, Spec{Protocol: "FCAT-2", Seed: 5, Tags: 40, Channel: channel, NoiseSigma: 0.03}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.step(60, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if h.identCount == 0 {
			t.Fatalf("%s session identified nothing in 60 steps", channel)
		}
		return h.record()
	}
	for _, tc := range []struct {
		name    string
		channel string
		edit    func(*Record)
		ok      bool
	}{
		{"abstract intact", "abstract", func(*Record) {}, true},
		{"signal intact", "signal", func(*Record) {}, true},
		{"abstract tampered digest", "abstract", func(r *Record) { r.IdentDigest ^= 1 }, false},
		{"signal tampered digest", "signal", func(r *Record) { r.IdentDigest ^= 1 << 40 }, false},
		// A different stream reaches the same step count with a different
		// identification history; only the digest tells.
		{"abstract other stream", "abstract", func(r *Record) { r.Spec.Seed++ }, false},
		{"signal other stream", "signal", func(r *Record) { r.Spec.Seed++ }, false},
		{"abstract without digest", "abstract", func(r *Record) { r.IdentDigest = 0 }, true},
		{"signal without digest", "signal", func(r *Record) { r.IdentDigest = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := live(tc.channel)
			tc.edit(rec)
			if _, err := replayHosted(rec, nil); (err == nil) != tc.ok || (err != nil && !errors.Is(err, ErrReplayDiverged)) {
				t.Fatalf("replay: %v, want ok=%v or ErrReplayDiverged", err, tc.ok)
			}

			dir := t.TempDir()
			st, err := OpenStore(dir, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Write(rec); err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Kill()
			recovered := s.reg.Value(obs.MetricServerRecoveryRecovered)
			quarantined := s.reg.Value(obs.MetricServerRecoveryQuarantined)
			if tc.ok && (recovered != 1 || quarantined != 0) || !tc.ok && (recovered != 0 || quarantined != 1) {
				t.Fatalf("recovered %d, quarantined %d; want ok=%v", recovered, quarantined, tc.ok)
			}
			files, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineSuffix))
			if want := map[bool]int{true: 0, false: 1}[tc.ok]; len(files) != want {
				t.Fatalf("%d quarantined files, want %d", len(files), want)
			}
		})
	}
}
