package oracle

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"dfcheck/internal/apint"
	"dfcheck/internal/constrange"
	"dfcheck/internal/ir"
	"dfcheck/internal/solver"
	"dfcheck/internal/trace"
)

// quadraticCoverWindow is the reference coverWindow: try each sample in
// insertion order as the base, and return the first that covers every
// sample.
func quadraticCoverWindow(c apint.Int, samples []apint.Int) (apint.Int, bool) {
	for _, base := range samples {
		covered := true
		for _, s := range samples {
			if !s.Sub(base).ULT(c) {
				covered = false
				break
			}
		}
		if covered {
			return base, true
		}
	}
	return apint.Int{}, false
}

// TestCoverWindowMatchesQuadratic checks the sorted one-pass coverWindow
// against the quadratic scan on every window size: random sample lists
// with duplicates, a single sample, and every value of the width.
func TestCoverWindowMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	check := func(w uint, list []apint.Int) {
		t.Helper()
		var set sampleSet
		for _, v := range list {
			set.add(v)
		}
		for c := uint64(1); c < 1<<w; c++ {
			size := apint.New(w, c)
			gb, gok := set.coverWindow(size)
			wb, wok := quadraticCoverWindow(size, list)
			if gok != wok || (gok && gb.Ne(wb)) {
				t.Fatalf("w=%d C=%d samples %v: sorted (%v,%v), quadratic (%v,%v)", w, c, list, gb, gok, wb, wok)
			}
		}
	}
	for w := uint(1); w <= 8; w++ {
		space := uint64(1) << w
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(12)
			// Draw from a narrow pool half the time so duplicates are
			// common.
			pool := space
			if trial%2 == 0 && space > 4 {
				pool = 4
			}
			list := make([]apint.Int, n)
			for i := range list {
				list[i] = apint.New(w, uint64(rng.Int63n(int64(pool)))+uint64(trial))
			}
			check(w, list)
		}
		check(w, []apint.Int{apint.New(w, uint64(rng.Int63n(int64(space))))})
		all := make([]apint.Int, space)
		for i, v := range rng.Perm(int(space)) {
			all[i] = apint.New(w, uint64(v))
		}
		check(w, all)
	}
}

// referenceRange is rangeOfOutputs restated as a search over bases: the
// minimal cover from each achievable value, preferring the unsigned hull,
// then the signed hull, then the cover that ends lowest.
func referenceRange(w uint, outs []uint64) constrange.Range {
	mask := apint.AllOnes(w).Uint64()
	last := func(b uint64) uint64 { // offset of the cover's last element from b
		var m uint64
		for _, s := range outs {
			m = max(m, (s-b)&mask)
		}
		return m
	}
	best := last(outs[0])
	for _, b := range outs {
		best = min(best, last(b))
	}
	sign := apint.SignBitValue(w).Uint64()
	umin := slices.Min(outs)
	smin := slices.MinFunc(outs, func(a, b uint64) int { return cmp.Compare(a^sign, b^sign) })
	var pick uint64
	switch {
	case last(umin) == best:
		pick = umin
	case last(smin) == best:
		pick = smin
	default:
		first := true
		for _, b := range outs {
			if last(b) == best && (first || (b+best)&mask < (pick+best)&mask) {
				pick, first = b, false
			}
		}
	}
	return constrange.NonEmpty(apint.New(w, pick), apint.New(w, pick+best+1))
}

// TestRangeOfOutputsMatchesReference checks the gap-based range of an
// output set against the search over bases, on random sets, single
// values and full sets, and pins the signed-hull tie-break.
func TestRangeOfOutputsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(w uint, outs []uint64) {
		t.Helper()
		set := make([]apint.Int, len(outs))
		for i, v := range outs {
			set[i] = apint.New(w, v)
		}
		got, want := rangeOfOutputs(w, set), referenceRange(w, outs)
		if !got.Eq(want) {
			t.Fatalf("w=%d outputs %v: range %v, reference %v", w, outs, got, want)
		}
	}
	for w := uint(1); w <= 8; w++ {
		space := uint64(1) << w
		for trial := 0; trial < 200; trial++ {
			outs := make([]uint64, 1+rng.Intn(int(min(space, 10))))
			for i := range outs {
				outs[i] = uint64(rng.Int63n(int64(space)))
			}
			check(w, outs)
		}
		all := make([]uint64, space)
		for i := range all {
			all[i] = uint64(i)
		}
		check(w, all)
	}
	// Gaps 0→5 and 6→11 are both widest; the second spans the sign
	// boundary, so the signed hull [-5, 7) wins over the lower start.
	got := rangeOfOutputs(4, []apint.Int{apint.New(4, 15), apint.New(4, 0), apint.New(4, 5), apint.New(4, 6), apint.New(4, 11)})
	if got.String() != "[-5,7)" {
		t.Errorf("tie range = %v, want the signed hull [-5,7)", got)
	}
}

// outsideCounter counts the OutputOutside queries an algorithm poses;
// every other method, Outputs included, is forwarded by the embedding.
type outsideCounter struct {
	solver.Engine
	outside int
}

func (e *outsideCounter) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	e.outside++
	return e.Engine.OutputOutside(lo, size)
}

// TestIntegerRangeReadsOutputSet checks the enumerable path: the 13-bit
// fshr cell of the seed-2020 corpus, which the CEGIS search gave up on,
// is read exactly from the enumeration engine's output set with no
// window queries at all, through an engine wrapper.
func TestIntegerRangeReadsOutputSet(t *testing.T) {
	f := ir.MustParse("%x0:i13 = var\n%0:i13 = add %x0, %x0\n%1:i13 = fshr %0, %x0, %0\n%2:i13 = and %1, %1\n%3:i13 = subnsw %2, %0\ninfer %3")
	e := &outsideCounter{Engine: solver.NewEngine(f, solver.Config{})}
	if _, ok := e.Engine.(*solver.EnumEngine); !ok {
		t.Fatalf("engine is %T, want the enumeration engine", e.Engine)
	}
	got := IntegerRangeSeeded(e, f, ComputeSeed(f))
	if got.Exhausted || got.Range.String() != "[-3529,-3550)" {
		t.Errorf("range = %v (exhausted %v), want [-3529,-3550) exact", got.Range, got.Exhausted)
	}
	if e.outside != 0 {
		t.Errorf("%d OutputOutside queries, want 0", e.outside)
	}
}

// failingOutside answers every OutputOutside query as exhausted.
type failingOutside struct{ solver.Engine }

func (failingOutside) OutputOutside(apint.Int, apint.Int) (apint.Int, bool, bool) {
	return apint.Int{}, false, false
}

// TestSynthesizeBaseNamesItsCause checks the two exhaustion causes: a
// query that comes back without an answer is the solver's, and a size
// too close to the full word to refute within the try cap is the cap's.
func TestSynthesizeBaseNamesItsCause(t *testing.T) {
	f := ir.MustParse("%x:i16 = var\n%0:i1 = eq 0:i16, %x\n%1:i16 = select %0, 1:i16, %x\ninfer %1")
	var samples sampleSet
	samples.add(apint.New(16, 1))
	if _, _, by := synthesizeBase(failingOutside{solver.NewSAT(f, 0)}, 16, apint.New(16, 100), &samples); by != exhaustedBySolver {
		t.Errorf("failing solver: exhausted by %q, want %q", by, exhaustedBySolver)
	}
	if _, _, by := synthesizeBase(solver.NewSAT(f, 0), 16, apint.New(16, 65500), &samples); by != exhaustedByTries {
		t.Errorf("near-full size: exhausted by %q, want %q", by, exhaustedByTries)
	}
	if _, found, by := synthesizeBase(solver.NewSAT(f, 0), 16, apint.New(16, 100), &samples); found || by != "" {
		t.Errorf("size 100: found=%v exhausted by %q, want an exact refutation", found, by)
	}
}

// TestCegisSpansRecordExhaustionCause checks that a CEGIS iteration that
// gives up says why on its span: all values but zero at i13 leave the
// binary search at sizes whose refutation cannot fit the try cap.
func TestCegisSpansRecordExhaustionCause(t *testing.T) {
	f := ir.MustParse("%x:i13 = var\n%0:i1 = eq 0:i13, %x\n%1:i13 = select %0, 1:i13, %x\ninfer %1")
	var buf bytes.Buffer
	tr := trace.New(&buf)
	root := tr.Start(nil, trace.KindBatch, "test")
	e := solver.NewSAT(f, 0)
	e.SetTraceSpan(root)
	got := IntegerRange(e, f)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !got.Exhausted || got.Range.String() != "[1,0)" {
		t.Fatalf("range = %v (exhausted %v), want the hull [1,0), exhausted", got.Range, got.Exhausted)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	causes := map[any]int{}
	for _, ev := range evs {
		if ev["ph"] == "X" && ev["name"] == "cegis" {
			args, _ := ev["args"].(map[string]any)
			causes[args["exhausted_by"]]++
		}
	}
	if causes[exhaustedByTries] == 0 || len(causes) != 2 {
		t.Errorf("cegis spans by exhausted_by: %v, want some %q and the rest untagged", causes, exhaustedByTries)
	}
}
