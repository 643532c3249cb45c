package solver

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/ir"
	"dfcheck/internal/trace"
)

// windowCorpus holds i4 functions with different output-set shapes: a
// contiguous block, a strided set, a set that straddles the sign
// boundary, a set with interior holes, and an infeasible one.
var windowCorpus = []string{
	"%x:i4 = var\n%0:i4 = and 7:i4, %x\ninfer %0",
	"%x:i4 = var\n%0:i4 = shl 8:i4, %x\ninfer %0",
	"%x:i4 = var\n%0:i4 = srem %x, 3:i4\ninfer %0",
	"%x:i4 = var\n%0:i4 = udiv 8:i4, %x\ninfer %0",
	"%x:i4 = var\n%0:i4 = udiv %x, 0:i4\ninfer %0",
}

// TestWindowCircuitMatchesEnum sweeps every window (lo, size) at w=4 —
// the empty window (size 0), every proper window, wrapped ones, and size
// 2^w−1 — and checks each SAT path against enumeration: the incremental
// engine answering all 256 windows in turn (learned clauses carry from
// window to window), a new incremental engine per window (every query
// reaches the window circuit, none the witness cache), and the fresh
// path. A w-bit size cannot name the full window (lo+size == lo only at
// size 0), so that case is unreachable through OutputOutside; existsIn
// answers it without a query.
func TestWindowCircuitMatchesEnum(t *testing.T) {
	for _, src := range windowCorpus {
		f := ir.MustParse(src)
		enum := NewEnum(f)
		outs, ok := enum.Outputs()
		if !ok {
			t.Fatalf("%s: enum Outputs unavailable", src)
		}
		shared := NewSAT(f, 0)
		for lo := uint64(0); lo < 16; lo++ {
			for size := uint64(0); size < 16; size++ {
				l, sz := apint.New(4, lo), apint.New(4, size)
				_, want, ok := enum.OutputOutside(l, sz)
				if !ok {
					t.Fatalf("%s: enum OutputOutside(%d,%d) exhausted", src, lo, size)
				}
				own := NewSAT(f, 0)
				fresh := NewSAT(f, 0)
				fresh.Fresh = true
				for _, e := range []*SATEngine{shared, own, fresh} {
					ex, got, ok := e.OutputOutside(l, sz)
					if !ok || got != want {
						t.Fatalf("%s: OutputOutside(%d,%d) fresh=%v = (%v,%v), enum says %v",
							src, lo, size, e.Fresh, got, ok, want)
					}
					if got && (!outsideWindow(ex, l, sz) || !slices.ContainsFunc(outs, ex.Eq)) {
						t.Fatalf("%s: OutputOutside(%d,%d) example %v is not an achievable output outside the window",
							src, lo, size, ex)
					}
				}
			}
		}
	}
}

// TestOutputSessionSizeIsFixed checks that the range oracle's queries do
// not grow the shared solver: after the first OutputOutside builds the
// window circuit, 200 more windows leave NumVars unchanged.
func TestOutputSessionSizeIsFixed(t *testing.T) {
	f := ir.MustParse("%x:i8 = var\n%y:i8 = var\n%0:i8 = and 15:i8, %x\n%1:i8 = add %0, %y\n%2:i8 = and %1, 63:i8\ninfer %2")
	e := NewSAT(f, 0)
	if _, _, ok := e.OutputOutside(apint.New(8, 0), apint.New(8, 64)); !ok {
		t.Fatal("first OutputOutside exhausted")
	}
	vars := e.out.s.NumVars()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		// Half the windows cover the whole output set [0, 64) from a
		// random wrapped start, so they are refuted by the solver rather
		// than answered from the witness cache.
		lo, size := apint.New(8, uint64(rng.Intn(256))), apint.New(8, uint64(rng.Intn(256)))
		if i%2 == 0 {
			back := uint64(rng.Intn(128))
			lo = apint.New(8, -back)
			size = apint.New(8, back+64+uint64(rng.Intn(64)))
		}
		if _, _, ok := e.OutputOutside(lo, size); !ok {
			t.Fatalf("OutputOutside(%v,%v) exhausted", lo, size)
		}
	}
	if got := e.out.s.NumVars(); got != vars {
		t.Errorf("output session grew from %d to %d variables over 200 OutputOutside queries", vars, got)
	}
	if q := e.Stats().Queries; q < 100 {
		t.Errorf("only %d queries reached the solver, want at least 100", q)
	}
}

// TestOutputsIsTheAchievableSet checks Engine.Outputs: the enumeration
// engine returns exactly the outputs some well-defined input produces,
// and the SAT engine reports the set unavailable.
func TestOutputsIsTheAchievableSet(t *testing.T) {
	for _, src := range windowCorpus {
		f := ir.MustParse(src)
		outs, ok := NewEnum(f).Outputs()
		if !ok {
			t.Fatalf("%s: enum Outputs unavailable", src)
		}
		se := NewSAT(f, 0)
		for v := uint64(0); v < 16; v++ {
			// v is achievable iff the window of everything but v has
			// something outside it.
			x := apint.New(4, v)
			_, want, _ := se.OutputOutside(x.Add(apint.One(4)), apint.New(4, 15))
			if got := slices.ContainsFunc(outs, x.Eq); got != want {
				t.Errorf("%s: Outputs contains %d = %v, SAT says achievable = %v", src, v, got, want)
			}
		}
		if _, ok := se.Outputs(); ok {
			t.Errorf("%s: SATEngine.Outputs reported a set", src)
		}
	}
}

// TestOutsideSpansNameTheWindow checks that every outside query span, on
// both SAT paths and the enumeration path, carries its window's lo and
// size.
func TestOutsideSpansNameTheWindow(t *testing.T) {
	f := ir.MustParse("%x:i4 = var\n%0:i4 = and 7:i4, %x\ninfer %0")
	var buf bytes.Buffer
	tr := trace.New(&buf)
	root := tr.Start(nil, trace.KindBatch, "test")
	lo, size := apint.New(4, 13), apint.New(4, 6)
	for _, fresh := range []bool{false, true} {
		e := NewSAT(f, 0)
		e.Fresh = fresh
		e.SetTraceSpan(root)
		e.OutputOutside(lo, size)
	}
	enum := NewEnum(f)
	enum.SetTraceSpan(root)
	enum.OutputOutside(lo, size)
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
		if ev["ph"] != "X" || ev["name"] != "outside" {
			continue
		}
		n++
		args := ev["args"].(map[string]any)
		if args["lo"] != float64(13) || args["size"] != float64(6) {
			t.Errorf("outside span args lo=%v size=%v, want 13 and 6", args["lo"], args["size"])
		}
	}
	if n != 3 {
		t.Errorf("got %d outside spans, want 3 (incremental, fresh, enum)", n)
	}
}
