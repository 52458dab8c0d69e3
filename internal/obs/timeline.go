package obs

import (
	"fmt"
	"io"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Timeline renders the event stream as a human-readable slot timeline, the
// debugging view of a run: one line per slot (`.` empty, `S` singleton,
// `C` collision) with indented annotations for frames, acknowledgements,
// record activity, cascade steps and estimator updates. Example:
//
//	run FCAT-2 tags=50
//	    frame 1 size=30 p=0.02828
//	[0007] C tx=2                              record @7 mult=2
//	[0012] S tx=1 id=30f1-4e2a99c0b51d-77aa    ack direct ok
//	           cascade 30f1-4e2a99c0b51d-77aa -> 1 record (depth 0)
//	           resolve @7 -> a012-... (depth 1)
//	    estimate 48.2 (frame est 47.0, identified 9)
//	run end: 61 slots, 2 frames, 38 direct + 12 resolved
//
// Not safe for concurrent use; errors are sticky and reported by Err.
type Timeline struct {
	w   io.Writer
	err error
}

// NewTimeline returns a timeline writer over w.
func NewTimeline(w io.Writer) *Timeline {
	return &Timeline{w: w}
}

// Err returns the first write error, if any.
func (t *Timeline) Err() error { return t.err }

func (t *Timeline) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func glyph(k channel.Kind) byte {
	switch k {
	case channel.Empty:
		return '.'
	case channel.Singleton:
		return 'S'
	case channel.Collision:
		return 'C'
	case channel.Captured:
		return 'P'
	default:
		return '?'
	}
}

// Emit implements Tracer: one line per event.
func (t *Timeline) Emit(ev Event) {
	switch ev.Kind {
	case RunStart:
		t.printf("run %s tags=%d\n", ev.Label, ev.N1)
	case RunEnd:
		if ev.Err != "" {
			t.printf("run end: %d slots, %d frames, %d direct + %d resolved, ERROR %s\n",
				ev.Seq, ev.N1, ev.N2, ev.N3, ev.Err)
			return
		}
		t.printf("run end: %d slots, %d frames, %d direct + %d resolved\n",
			ev.Seq, ev.N1, ev.N2, ev.N3)
	case FrameStart:
		if ev.F1 > 0 {
			t.printf("    frame %d size=%d p=%.5f\n", ev.N1, ev.N2, ev.F1)
			return
		}
		t.printf("    frame %d size=%d\n", ev.N1, ev.N2)
	case Advertisement:
		t.printf("    advert p=%.5f\n", ev.F1)
	case SlotDone:
		t.printf("[%04d] %c tx=%d identified=%d\n", ev.Seq, glyph(channel.Kind(ev.Sub)), ev.N1, ev.N2)
	case TagIdentified:
		how := "direct"
		if ev.Flag {
			how = "resolved"
		}
		t.printf("           identify %s (%s)\n", ev.ID, how)
	case AckSent:
		fate := "ok"
		if !ev.Flag {
			fate = "LOST"
		}
		t.printf("           ack %s %s %s\n", AckKind(ev.Sub), ev.ID, fate)
	case RecordCreated:
		t.printf("           record @%d mult=%d unknown=%d\n", ev.Seq, ev.N1, ev.N2)
	case CascadeStep:
		t.printf("           cascade %s -> %d records (depth %d)\n", ev.ID, ev.N1, ev.N2)
	case RecordResolved:
		if ev.Flag {
			t.printf("           resolve @%d spent (residual %s already known)\n", ev.Seq, ev.ID)
			return
		}
		t.printf("           resolve @%d -> %s (depth %d)\n", ev.Seq, ev.ID, ev.N1)
	case EstimatorUpdate:
		t.printf("    estimate %.1f (frame est %.1f, identified %d)\n", ev.F1, ev.F2, ev.N2)
	case TagArrival:
		t.printf("    arrive %s at %v (active %d)\n", ev.ID, ev.At, ev.N1)
	case TagDeparture:
		fate := "identified"
		if !ev.Flag {
			fate = "UNREAD"
		}
		t.printf("    depart %s at %v (%s)\n", ev.ID, ev.At, fate)
	case SessionCheckpoint:
		t.printf("    checkpoint %d at %v (active %d, identified %d)\n", ev.Seq, ev.At, ev.N1, ev.N2)
	case FaultInjected:
		if ev.ID == (tagid.ID{}) {
			t.printf("           fault %s @%d\n", FaultKind(ev.Sub), ev.Seq)
			return
		}
		t.printf("           fault %s @%d id=%s\n", FaultKind(ev.Sub), ev.Seq, ev.ID)
	case RecordQuarantined:
		t.printf("           quarantine @%d (%s, %d members)\n", ev.Seq, ev.Label, ev.N1)
	case ReaderRestart:
		t.printf("    RESTART at wall slot %d -> checkpoint %d (%v)\n", ev.Seq, ev.N1, ev.At)
	case FleetActivity:
		if FleetKind(ev.Sub) == FleetMigration {
			t.printf("    fleet reader=%d migrate %s zone %d -> %d at %v\n",
				ev.N1, ev.ID, ev.N3, ev.N2, ev.At)
			return
		}
		t.printf("    fleet reader=%d zone=%d %s at %v\n", ev.N1, ev.N2, FleetKind(ev.Sub), ev.At)
	}
}
