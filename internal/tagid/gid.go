package tagid

// Structured ID layout. The paper's motivating application is inventory
// auditing — "guard against administration error, vendor fraud and
// employee theft" (Section I) — which needs IDs that carry who made the
// item and what it is. Following the EPC General Identifier layout, the
// 80 payload bits (the 96-bit ID minus its CRC-16) are split as
//
//	manager (28 bits) | class (16 bits) | serial (36 bits)
//
// where manager identifies the vendor, class the product line and serial
// the individual item.
const (
	// ManagerBits is the width of the vendor/manager field.
	ManagerBits = 28
	// ClassBits is the width of the product-class field.
	ClassBits = 16
	// SerialBits is the width of the per-item serial field.
	SerialBits = 36
)

// FromParts builds an ID from its manager, class and serial fields
// (values are truncated to their field widths) and appends the CRC.
func FromParts(manager uint32, class uint16, serial uint64) ID {
	m := uint64(manager) & (1<<ManagerBits - 1)
	s := serial & (1<<SerialBits - 1)
	// Payload bit layout, most significant first:
	// [manager 28][class 16][serial 36] = 80 bits = hi(16) + lo(64).
	hi := uint16(m >> 12)
	lo := (m&0xFFF)<<52 | uint64(class)<<36 | s
	return New(hi, lo)
}
