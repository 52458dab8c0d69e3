package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/ancrfid/ancrfid/internal/protocol"
)

// TestProgressMatchesResults pins the progress curve: rendered with the
// cmd/tables defaults (seed 1, binomial transmitters, per-experiment
// runs and size), it must reproduce the PROGRESS block of
// docs/results.txt byte for byte.
func TestProgressMatchesResults(t *testing.T) {
	doc, err := os.ReadFile("../../docs/results.txt")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(doc, []byte("PROGRESS — "))
	if start < 0 {
		t.Fatal("docs/results.txt has no PROGRESS block")
	}
	block := doc[start:]
	if end := bytes.Index(block, []byte("\n\n")); end >= 0 {
		block = block[:end+1]
	}

	r, err := Run("progress", Options{Seed: 1, TxModel: protocol.TxBinomial})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(sb.String(), "\n") + "\n"; got != string(block) {
		t.Fatalf("progress curve drifted from docs/results.txt:\ngot:\n%s\nwant:\n%s", got, block)
	}
}
