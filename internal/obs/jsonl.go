package obs

import (
	"io"
	"strconv"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// JSONL writes the event stream as JSON Lines: one self-contained JSON
// object per event, each stamped with the schema version ("v") and the
// event name ("ev"). The format is append-only and stream-friendly —
// `jq 'select(.ev=="resolve")'` over a trace file reconstructs every
// cancellation cascade of a run.
//
// Every line additionally carries "run", a 0-based counter of RunStart
// events seen by this writer, so traces of multi-run campaigns stay
// separable.
//
// The writer is not safe for concurrent use; give each concurrent run its
// own JSONL (or serialise runs, as the sim harness does). Errors are
// sticky: the first write error stops all output and is reported by Err.
type JSONL struct {
	w   io.Writer
	buf []byte
	run int
	err error
}

// NewJSONL returns a JSONL trace writer over w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, buf: make([]byte, 0, 256), run: -1}
}

// Err returns the first write error, if any.
func (j *JSONL) Err() error { return j.err }

// open starts a line with the fixed prefix {"v":1,"ev":"<name>","run":N.
func (j *JSONL) open(ev string) {
	j.buf = j.buf[:0]
	j.buf = append(j.buf, `{"v":`...)
	j.buf = strconv.AppendInt(j.buf, SchemaVersion, 10)
	j.buf = append(j.buf, `,"ev":"`...)
	j.buf = append(j.buf, ev...)
	j.buf = append(j.buf, `","run":`...)
	j.buf = strconv.AppendInt(j.buf, int64(j.run), 10)
}

func (j *JSONL) int(key string, v int64) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendInt(j.buf, v, 10)
}

func (j *JSONL) float(key string, v float64) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendFloat(j.buf, v, 'g', -1, 64)
}

func (j *JSONL) str(key, v string) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendQuote(j.buf, v)
}

func (j *JSONL) bool(key string, v bool) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendBool(j.buf, v)
}

func (j *JSONL) id(key string, v tagid.ID) {
	j.str(key, v.String())
}

func (j *JSONL) close() {
	j.buf = append(j.buf, '}', '\n')
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = err
	}
}

// Emit implements Tracer: one line per event.
func (j *JSONL) Emit(ev Event) {
	if j.err != nil {
		return
	}
	if ev.Kind == RunStart {
		j.run++
	}
	j.open(ev.Kind.String())
	switch ev.Kind {
	case RunStart:
		j.str("protocol", ev.Label)
		j.int("tags", int64(ev.N1))
	case RunEnd:
		j.str("protocol", ev.Label)
		j.int("slots", int64(ev.Seq))
		j.int("frames", int64(ev.N1))
		j.int("direct", int64(ev.N2))
		j.int("resolved", int64(ev.N3))
		if ev.Err != "" {
			j.str("err", ev.Err)
		}
	case FrameStart:
		j.int("seq", int64(ev.Seq))
		j.int("frame", int64(ev.N1))
		j.int("size", int64(ev.N2))
		j.float("p", ev.F1)
	case Advertisement:
		j.int("seq", int64(ev.Seq))
		j.float("p", ev.F1)
	case SlotDone:
		j.int("seq", int64(ev.Seq))
		j.str("kind", channel.Kind(ev.Sub).String())
		j.int("tx", int64(ev.N1))
		j.int("identified", int64(ev.N2))
	case TagIdentified:
		j.id("id", ev.ID)
		j.bool("via_resolution", ev.Flag)
	case AckSent:
		j.int("seq", int64(ev.Seq))
		j.id("id", ev.ID)
		j.str("kind", AckKind(ev.Sub).String())
		j.bool("delivered", ev.Flag)
	case RecordCreated:
		j.int("slot", int64(ev.Seq))
		j.int("mult", int64(ev.N1))
		j.int("unknown", int64(ev.N2))
	case CascadeStep:
		j.id("id", ev.ID)
		j.int("records", int64(ev.N1))
		j.int("depth", int64(ev.N2))
	case RecordResolved:
		j.int("slot", int64(ev.Seq))
		j.id("id", ev.ID)
		if ev.ID2 != (tagid.ID{}) {
			j.id("trigger", ev.ID2)
		}
		j.int("depth", int64(ev.N1))
		if ev.Flag {
			j.bool("dup", true)
		}
	case EstimatorUpdate:
		j.int("frame", int64(ev.N1))
		j.float("estimate", ev.F1)
		j.float("frame_est", ev.F2)
		j.int("identified", int64(ev.N2))
	case TagArrival:
		j.id("id", ev.ID)
		j.int("t_us", ev.At.Microseconds())
		j.int("active", int64(ev.N1))
	case TagDeparture:
		j.id("id", ev.ID)
		j.int("t_us", ev.At.Microseconds())
		j.bool("identified", ev.Flag)
	case SessionCheckpoint:
		j.int("seq", int64(ev.Seq))
		j.int("t_us", ev.At.Microseconds())
		j.int("active", int64(ev.N1))
		j.int("identified", int64(ev.N2))
	case FaultInjected:
		j.int("slot", int64(ev.Seq))
		j.str("kind", FaultKind(ev.Sub).String())
		if ev.ID != (tagid.ID{}) {
			j.id("id", ev.ID)
		}
	case RecordQuarantined:
		j.int("slot", int64(ev.Seq))
		j.str("reason", ev.Label)
		j.int("members", int64(ev.N1))
	case ReaderRestart:
		j.int("wall", int64(ev.Seq))
		j.int("t_us", ev.At.Microseconds())
		j.int("checkpoint", int64(ev.N1))
	case FleetActivity:
		j.int("reader", int64(ev.N1))
		j.int("zone", int64(ev.N2))
		j.str("kind", FleetKind(ev.Sub).String())
		if ev.ID != (tagid.ID{}) {
			j.id("id", ev.ID)
		}
		if ev.N3 >= 0 {
			j.int("from", int64(ev.N3))
		}
		j.int("t_us", ev.At.Microseconds())
	}
	j.close()
}
