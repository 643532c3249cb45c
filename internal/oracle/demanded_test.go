package oracle

import (
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/solver"
)

// TestDemandedBitsSremAddNUW pins the expression that used to dominate a
// Table 1 run: addnuw %x1, %x1 is poison unless x1's top bit is clear,
// so that bit is not demanded. Both copies of the flip miter constrain
// the same bit, which refutes the query well inside a small budget.
func TestDemandedBitsSremAddNUW(t *testing.T) {
	f := ir.MustParse("%x0:i16 = var\n%x1:i16 = var\n%0:i16 = addnuw %x1, %x1\n%1:i16 = srem %x0, %0\ninfer %1")
	got := DemandedBits(solver.NewSAT(f, 20000), f)
	if got.Exhausted {
		t.Fatal("exhausted with a 20000-conflict budget")
	}
	want := map[string]uint64{"x0": 0xffff, "x1": 0x7fff}
	for name, w := range want {
		if d := got.Demanded[name]; !d.Eq(apint.New(16, w)) {
			t.Errorf("demanded %%%s = %s, want %016b", name, d.BitString(), w)
		}
	}
}

// countingEngine counts the ForcedBitMatters queries an algorithm poses.
type countingEngine struct {
	solver.Engine
	forced int
}

func (e *countingEngine) ForcedBitMatters(v *ir.Inst, bit uint, val bool) (bool, bool) {
	e.forced++
	return e.Engine.ForcedBitMatters(v, bit, val)
}

func TestDemandedBitsOneQueryPerBit(t *testing.T) {
	for _, src := range oracleCorpus {
		f := ir.MustParse(src)
		bits := 0
		for _, v := range f.Vars {
			bits += int(v.Width)
		}
		e := &countingEngine{Engine: solver.NewSAT(f, 0)}
		DemandedBits(e, f)
		if e.forced > bits {
			t.Errorf("%s: %d ForcedBitMatters queries, want at most %d (one per input bit)", src, e.forced, bits)
		}
	}
}

// twoPolarityDemanded is the paper's Algorithm 2 as written: a bit is
// demanded when forcing it to 0 or forcing it to 1 can change the output.
func twoPolarityDemanded(e solver.Engine, f *ir.Function) (map[string]apint.Int, bool) {
	out := make(map[string]apint.Int, len(f.Vars))
	for _, v := range f.Vars {
		mask := apint.Zero(v.Width)
		for i := uint(0); i < v.Width; i++ {
			for _, val := range []bool{false, true} {
				matters, ok := e.ForcedBitMatters(v, i, val)
				if !ok {
					return nil, false
				}
				if matters {
					mask = mask.SetBit(i)
					break
				}
			}
		}
		out[v.Name] = mask
	}
	return out, true
}

// TestDemandedBitsMatchesTwoPolarity checks the one-query-per-bit
// algorithm against the paper's two-query form over the corpus of
// `precision-table -n 150` (seed 2020, widths up to 16, paper fragments
// included): every mask that both compute without exhaustion is
// identical. The reference runs on the enumeration engine where the
// input space is small enough, so those masks are also checked against
// ground truth.
func TestDemandedBitsMatchesTwoPolarity(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every expression of the 150-expression corpus twice")
	}
	corpus := harvest.Generate(harvest.Config{
		Seed:     2020,
		NumExprs: 150,
		MaxInsts: 8,
		Widths: []harvest.WidthWeight{
			{Width: 4, Weight: 10}, {Width: 8, Weight: 45}, {Width: 13, Weight: 15}, {Width: 16, Weight: 30},
		},
		MaxCastWidth: 16,
	})
	for _, fr := range harvest.PaperFragments {
		corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF()})
	}
	compared := 0
	for _, e := range corpus {
		f := e.F
		got := DemandedBits(solver.NewSAT(f, 0), f)
		if got.Exhausted {
			t.Logf("%s: exhausted", e.Name)
			continue
		}
		var ref solver.Engine = solver.NewSAT(f, 0)
		if eval.TotalInputBits(f) <= 16 {
			ref = solver.NewEnum(f)
		}
		want, ok := twoPolarityDemanded(ref, f)
		if !ok {
			t.Logf("%s: reference exhausted", e.Name)
			continue
		}
		compared++
		for _, v := range f.Vars {
			if g, w := got.Demanded[v.Name], want[v.Name]; g.Ne(w) {
				t.Errorf("%s: demanded %%%s = %s, two-polarity reference %s\n%s",
					e.Name, v.Name, g.BitString(), w.BitString(), f)
			}
		}
	}
	if compared < len(corpus)*9/10 {
		t.Errorf("compared %d of %d expressions, want at least 90%%", compared, len(corpus))
	}
}
