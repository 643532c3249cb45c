package solver

import (
	"bytes"
	"encoding/json"
	"testing"

	"dfcheck/internal/ir"
	"dfcheck/internal/trace"
)

// TestForcedBitSpansNameTheBit checks that every forced-bit query span,
// on both SAT paths and the enumeration path, says which input bit it asked about, so the costliest
// bit reads straight off a trace.
func TestForcedBitSpansNameTheBit(t *testing.T) {
	f := ir.MustParse("%x:i4 = var\n%y:i4 = var\n%0:i4 = udiv %x, %y\ninfer %0")
	var buf bytes.Buffer
	tr := trace.New(&buf)
	root := tr.Start(nil, trace.KindBatch, "test")
	for _, fresh := range []bool{false, true} {
		e := NewSAT(f, 0)
		e.Fresh = fresh
		e.SetTraceSpan(root)
		e.ForcedBitMatters(f.Vars[1], 2, false)
	}
	enum := NewEnum(f)
	enum.SetTraceSpan(root)
	enum.ForcedBitMatters(f.Vars[1], 2, false)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	n := 0
	for _, ev := range evs {
		if ev["ph"] != "X" || ev["name"] != "forced-bit" {
			continue
		}
		n++
		args := ev["args"].(map[string]any)
		if args["var"] != "y" || args["bit"] != float64(2) {
			t.Errorf("forced-bit span args var=%v bit=%v, want y and 2", args["var"], args["bit"])
		}
	}
	if n != 3 {
		t.Errorf("got %d forced-bit spans, want 3 (incremental, fresh, enum)", n)
	}
}
