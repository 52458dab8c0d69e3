package ancrfid_test

import (
	"math/cmplx"
	"testing"

	"github.com/ancrfid/ancrfid"
)

func TestInventoryFacade(t *testing.T) {
	r := ancrfid.NewRNG(21)
	field := ancrfid.RandomField(r, 800, 60)
	positions := ancrfid.PlanGrid(60, 50)
	rep, err := ancrfid.ReadInventory(field, ancrfid.InventoryConfig{
		Protocol:  ancrfid.NewFCAT(2),
		Positions: positions,
		Radius:    50,
		RNG:       r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage(field) != 1 {
		t.Fatalf("coverage %.2f", rep.Coverage(field))
	}
	if missing := rep.Missing(nil); len(missing) != 0 {
		t.Fatal("nothing expected, nothing missing")
	}
	unknown := ancrfid.Population(ancrfid.NewRNG(99), 3)
	if missing := rep.Missing(unknown); len(missing) != 3 {
		t.Fatalf("all foreign IDs should be missing, got %d", len(missing))
	}
}

func TestNewFieldFacade(t *testing.T) {
	items := []ancrfid.Item{
		{ID: ancrfid.TagIDFromParts(1, 2, 3), X: 1, Y: 1},
		{ID: ancrfid.TagIDFromParts(1, 2, 4), X: 50, Y: 50},
	}
	field := ancrfid.NewField(items)
	if got := field.InRange(ancrfid.Position{X: 0, Y: 0}, 5); len(got) != 1 {
		t.Fatalf("InRange found %d", len(got))
	}
	if field.Size() != 2 {
		t.Fatalf("Size = %d", field.Size())
	}
}

func TestCRDSAFacade(t *testing.T) {
	p, err := ancrfid.ByName("crdsa")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ancrfid.Run(p, ancrfid.SimConfig{Tags: 400, Runs: 2, Seed: 3, Lambda: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatal("no throughput")
	}
	custom := ancrfid.NewCRDSAWith(ancrfid.CRDSAConfig{Replicas: 3})
	if custom.Name() != "CRDSA" {
		t.Fatal("wrong name")
	}
}

func TestSCATPreEstimateFacade(t *testing.T) {
	p := ancrfid.NewSCATWith(ancrfid.SCATConfig{
		Lambda:            2,
		PreEstimate:       true,
		PreEstimateConfig: ancrfid.PreEstimateConfig{FrameSize: 32, Frames: 4},
	})
	res, err := ancrfid.Run(p, ancrfid.SimConfig{Tags: 500, Runs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Runs {
		if m.Identified() != 500 {
			t.Fatalf("identified %d of 500", m.Identified())
		}
	}
}

func TestPhyFacadeOffsets(t *testing.T) {
	r := ancrfid.NewRNG(5)
	id := ancrfid.Population(r, 1)[0]
	w := ancrfid.ScaleWaveform(ancrfid.ModulateID(id, ancrfid.SamplesPerBit), cmplx.Rect(0.9, 0.4))
	shifted := ancrfid.ApplyFrequencyOffset(w, 0.02)
	got, ok := ancrfid.DecodeWaveform(shifted, ancrfid.SamplesPerBit)
	if !ok || got != id {
		t.Fatal("decode under offset failed")
	}
	if !ancrfid.EnvelopeFlat(shifted, 0.01) {
		t.Fatal("single rotated signal should keep a flat envelope")
	}
}

// TestSlotObserverFacade checks the slot observer every protocol feeds: a
// TracerFunc watching SlotDone sees one event per report segment, its Seq
// running contiguously from 0 to TotalSlots()-1 — SCAT's pre-estimation
// probe slots included.
func TestSlotObserverFacade(t *testing.T) {
	type tc struct {
		name string
		p    ancrfid.Protocol
	}
	var cases []tc
	for _, name := range allProtocols {
		p, err := ancrfid.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name, p})
	}
	cases = append(cases, tc{"SCAT-2/pre-estimate",
		ancrfid.NewSCATWith(ancrfid.SCATConfig{Lambda: 2, PreEstimate: true})})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := ancrfid.NewRNG(6)
			events := 0
			env := &ancrfid.Env{
				RNG:     r,
				Tags:    ancrfid.Population(r, 300),
				Channel: ancrfid.NewAbstractChannel(ancrfid.AbstractChannelConfig{Lambda: 2}, r),
				Timing:  ancrfid.ICodeTiming(),
				Tracer: ancrfid.TracerFunc(func(ev ancrfid.TraceEvent) {
					if ev.Kind != ancrfid.TraceSlotDone {
						return
					}
					if ev.Seq != events {
						t.Fatalf("SlotDone %d carries Seq %d", events, ev.Seq)
					}
					if ev.N1 < 0 || ev.N2 < 0 {
						t.Fatalf("bad SlotDone %+v", ev)
					}
					events++
				}),
			}
			m, err := c.p.Run(env)
			if err != nil {
				t.Fatal(err)
			}
			if events != m.TotalSlots() {
				t.Fatalf("observer saw %d SlotDone events over %d slots", events, m.TotalSlots())
			}
		})
	}
}

func TestGen2TimingFacade(t *testing.T) {
	icode, gen2 := ancrfid.ICodeTiming(), ancrfid.Gen2Timing()
	if gen2.Slot() >= icode.Slot() {
		t.Fatal("Gen2 slots should be shorter")
	}
	res, err := ancrfid.Run(ancrfid.NewFCAT(2), ancrfid.SimConfig{
		Tags: 300, Runs: 2, Seed: 7, Timing: gen2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean < 2*ancrfid.AlohaBound(icode) {
		t.Fatalf("Gen2 FCAT throughput %v too low", res.Throughput.Mean)
	}
}
