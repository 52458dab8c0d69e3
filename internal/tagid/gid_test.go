package tagid

import (
	"testing"
	"testing/quick"

	"github.com/ancrfid/ancrfid/internal/rng"
)

// payload returns the 80 payload bits as (hi 16, lo 64).
func payload(id ID) (uint16, uint64) {
	hi := uint16(id[0])<<8 | uint16(id[1])
	var lo uint64
	for _, b := range id[2:10] {
		lo = lo<<8 | uint64(b)
	}
	return hi, lo
}

// gidManager, gidClass and gidSerial decode the fields FromParts packs.
func gidManager(id ID) uint32 {
	hi, lo := payload(id)
	return uint32(hi)<<12 | uint32(lo>>52)
}

func gidClass(id ID) uint16 {
	_, lo := payload(id)
	return uint16(lo >> 36)
}

func gidSerial(id ID) uint64 {
	_, lo := payload(id)
	return lo & (1<<SerialBits - 1)
}

func TestFromPartsRoundTrip(t *testing.T) {
	prop := func(manager uint32, class uint16, serial uint64) bool {
		m := manager & (1<<ManagerBits - 1)
		s := serial & (1<<SerialBits - 1)
		id := FromParts(manager, class, serial)
		return id.Valid() &&
			gidManager(id) == m &&
			gidClass(id) == class &&
			gidSerial(id) == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFromPartsKnownLayout(t *testing.T) {
	id := FromParts(0x0ABCDEF, 0x1234, 0x567890ABC)
	if gidManager(id) != 0x0ABCDEF {
		t.Errorf("manager %#x", gidManager(id))
	}
	if gidClass(id) != 0x1234 {
		t.Errorf("class %#x", gidClass(id))
	}
	if gidSerial(id) != 0x567890ABC {
		t.Errorf("serial %#x", gidSerial(id))
	}
}

func TestFromPartsTruncates(t *testing.T) {
	id := FromParts(^uint32(0), 0xFFFF, ^uint64(0))
	if gidManager(id) != 1<<ManagerBits-1 {
		t.Errorf("manager not truncated to %d bits: %#x", ManagerBits, gidManager(id))
	}
	if gidSerial(id) != 1<<SerialBits-1 {
		t.Errorf("serial not truncated to %d bits: %#x", SerialBits, gidSerial(id))
	}
}

func TestFromPartsDistinctSerials(t *testing.T) {
	// Same vendor and class, different serials: distinct valid IDs.
	seen := make(map[ID]bool)
	for serial := uint64(0); serial < 1000; serial++ {
		id := FromParts(42, 7, serial)
		if seen[id] {
			t.Fatalf("duplicate ID at serial %d", serial)
		}
		seen[id] = true
	}
}

func TestFieldWidthsSumToPayload(t *testing.T) {
	if ManagerBits+ClassBits+SerialBits != PayloadBits {
		t.Fatalf("field widths %d+%d+%d != payload %d",
			ManagerBits, ClassBits, SerialBits, PayloadBits)
	}
}

func TestStructuredIDsHashUniformly(t *testing.T) {
	// Sequential serials (the realistic case) must still spread the report
	// hash: tags from one vendor should not collide systematically.
	r := rng.New(1)
	_ = r
	var sum float64
	const n = 20000
	for serial := uint64(0); serial < n; serial++ {
		sum += float64(FromParts(42, 7, serial).ReportHash(3))
	}
	mean := sum / n
	want := float64(uint64(1)<<HashBits) / 2
	if mean < want*0.98 || mean > want*1.02 {
		t.Fatalf("hash mean %v over sequential serials, want ~%v", mean, want)
	}
}
