package solver

import (
	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/ir"
	"dfcheck/internal/sat"
	"dfcheck/internal/trace"
)

// This file implements the incremental query path of SATEngine: instead of
// bit-blasting a fresh solver per query, one solver holds the circuit and
// each query is posed through assumptions, so learned clauses carry over
// between the 2w known-bits queries, the sign-bit ladder, and the range
// search — the same trick incremental SMT solvers play under the paper's
// algorithms.
//
// For ForcedBitMatters (Algorithm 2), the second program copy reads its
// inputs through one flip selector per bit:
//
//	x2[i] = x[i] ⊕ sel[i]
//
// so one miter circuit serves every query for a variable. "Forcing bit i
// to val changes the output" is posed as sel[i], ¬sel[j] for j ≠ i, and
// x[i] = ¬val: the first copy runs with the bit at ¬val and the second
// with it at val. Inputs whose bit already equals val cannot differ from
// their forced copy, so this is the same question. Because both copies
// read the bit as a plain literal, their well-definedness constraints
// meet directly: a poison condition that pins the bit (an addnuw that
// needs it clear, say) refutes the query by unit propagation instead of
// through an equivalence proof of the two circuits.
//
// For OutputOutside (Algorithm 3's hull searches and CEGIS refutations),
// the output session holds one window circuit over free words LO and HI
// and a wrap literal:
//
//	outside = ¬(wrap ? (out ≥ LO ∨ out < HI) : (out ≥ LO ∧ out < HI))
//
// A query binds LO, HI and wrap through assumptions, next to WellDefined,
// so the range search runs on a solver of fixed size however many windows
// it asks about. Because LO and HI are free variables rather than
// constants, every clause learned under one window is a consequence of
// the circuit alone and stays valid for every later window. Two constant
// comparators per query would instead add ~4w gates to the shared solver
// with every window and slow every later search.

// outputSession is the shared circuit for queries about the root value.
type outputSession struct {
	s        *sat.Solver
	b        *bitblast.Blasted
	signEq   map[uint]sat.Lit // k -> "top k bits all equal"
	zeroLit  sat.Lit
	pow2Lit  sat.Lit
	haveZero bool
	havePow2 bool
	win      *windowCircuit // built on the first OutputOutside query
}

// windowCircuit computes out ∉ [LO, HI) for free words LO and HI, wrapped
// when the wrap literal is set.
type windowCircuit struct {
	lo, hi  bitblast.Word
	wrap    sat.Lit
	outside sat.Lit
}

// window returns the session's window circuit, building it on first use.
func (o *outputSession) window() *windowCircuit {
	if o.win == nil {
		c := o.b.C
		w := uint(len(o.b.Output))
		lo, hi, wrap := c.FreshWord(w), c.FreshWord(w), c.Lit()
		geLo := c.ULT(o.b.Output, lo).Not()
		ltHi := c.ULT(o.b.Output, hi)
		inside := c.Mux(wrap, c.Or(geLo, ltHi), c.And(geLo, ltHi))
		o.win = &windowCircuit{lo: lo, hi: hi, wrap: wrap, outside: inside.Not()}
	}
	return o.win
}

// bind appends the assumptions that fix the window to [lo, hi): each bit
// of LO and HI, and wrap exactly when the window wraps past zero.
func (win *windowCircuit) bind(assumptions []sat.Lit, lo, hi apint.Int) []sat.Lit {
	for i := range win.lo {
		assumptions = append(assumptions, litIf(win.lo[i], lo.Bit(uint(i))), litIf(win.hi[i], hi.Bit(uint(i))))
	}
	return append(assumptions, litIf(win.wrap, hi.ULT(lo)))
}

// litIf returns l when b holds and ¬l otherwise.
func litIf(l sat.Lit, b bool) sat.Lit {
	if b {
		return l
	}
	return l.Not()
}

func (e *SATEngine) output() *outputSession {
	if e.out == nil {
		s := sat.New()
		e.out = &outputSession{
			s:      s,
			b:      e.blast(s),
			signEq: make(map[uint]sat.Lit),
		}
	}
	return e.out
}

// solveAssuming runs one budgeted query on a shared solver, accumulating
// the per-query statistics deltas. The conflict budget is shared across
// the whole engine: each query may spend only what earlier queries left.
// name/class label the query's trace span and tag, when non-nil, adds
// query-specific attributes to it; on the shared solver the span carries
// this query's counter deltas, not lifetime totals.
func (e *SATEngine) solveAssuming(name, class string, tag func(*trace.Span), s *sat.Solver, assumptions ...sat.Lit) (bool, bool) {
	if e.pastDeadline() || e.outOfBudget() {
		return false, false
	}
	before := s.Stats()
	s.ConflictBudget = s.Conflicts + e.remaining()
	e.armAbort(s)
	e.armPortfolio(s)
	sp, _ := e.startQuery(name, class, tag, s)
	st := s.Solve(assumptions...)
	endQuery(sp, s, before, st)
	delta := s.Stats().Sub(before)
	e.spent += delta.Conflicts
	e.stats.Queries++
	e.stats.Conflicts += delta.Conflicts
	e.stats.Propagations += delta.Propagations
	e.stats.Decisions += delta.Decisions
	e.stats.Restarts += delta.Restarts
	e.stats.Learned += delta.Learned
	e.stats.PortfolioRuns += delta.PortfolioRuns
	e.stats.PortfolioWins += cloneWinsTotal(delta)
	e.stats.UnitsImported += delta.UnitsImported
	e.stats.UnitsExported += delta.UnitsExported
	if st == sat.Unknown {
		e.stats.Exhausted++
		return false, false
	}
	return st == sat.Sat, true
}

// maxWitnesses caps the model-witness cache: beyond it, hits still prune
// but new models are no longer remembered.
const maxWitnesses = 128

// recordWitness saves the output value of the session's current model.
// Every model of an output query satisfies WellDefined, so its output is
// an achievable value — a reusable positive answer for any later
// existence query it happens to satisfy.
func (e *SATEngine) recordWitness(o *outputSession) apint.Int {
	v := o.b.C.Value(o.b.Output)
	if len(e.witnesses) < maxWitnesses {
		for _, w := range e.witnesses {
			if w.Eq(v) {
				return v
			}
		}
		e.witnesses = append(e.witnesses, v)
	}
	return v
}

// witness scans cached model outputs for one satisfying pred; a hit
// decides an output-existence query with zero solver work (counted as
// pruned by the callers).
func (e *SATEngine) witness(pred func(apint.Int) bool) (apint.Int, bool) {
	for _, w := range e.witnesses {
		if pred(w) {
			return w, true
		}
	}
	return apint.Int{}, false
}

func (e *SATEngine) incFeasible() (bool, bool) {
	if e.feasKnown {
		e.stats.Pruned++
		return e.feasible, true
	}
	o := e.output()
	r, ok := e.solveAssuming("feasible", classExistence, nil, o.s, o.b.WellDefined)
	if ok {
		e.feasible, e.feasKnown = r, true
		if r {
			e.recordWitness(o)
		}
	}
	return r, ok
}

func (e *SATEngine) incOutputBitCanBe(i uint, val bool) (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return v.Bit(i) == val }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	l := o.b.Output[i]
	if !val {
		l = l.Not()
	}
	res, ok := e.solveAssuming("output-bit", classValidity, nil, o.s, o.b.WellDefined, l)
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

func (e *SATEngine) incSignBitsViolated(k uint) (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return v.NumSignBits() < k }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	eq, ok := o.signEq[k]
	if !ok {
		w := uint(len(o.b.Output))
		sign := o.b.Output[w-1]
		eq = o.b.C.True()
		for i := w - k; i < w-1; i++ {
			eq = o.b.C.And(eq, o.b.C.Xnor(o.b.Output[i], sign))
		}
		o.signEq[k] = eq
	}
	res, ok := e.solveAssuming("sign-bits", classValidity, nil, o.s, o.b.WellDefined, eq.Not())
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

func (e *SATEngine) incCanBeZero() (bool, bool) {
	if _, hit := e.witness(apint.Int.IsZero); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	if !o.haveZero {
		o.zeroLit = o.b.C.OrN(o.b.Output...).Not()
		o.haveZero = true
	}
	res, ok := e.solveAssuming("zero", classValidity, nil, o.s, o.b.WellDefined, o.zeroLit)
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

func (e *SATEngine) incCanBeNonPowerOfTwo() (bool, bool) {
	if _, hit := e.witness(func(v apint.Int) bool { return !v.IsPowerOfTwo() }); hit {
		e.stats.Pruned++
		return true, true
	}
	o := e.output()
	if !o.havePow2 {
		c := o.b.C
		w := uint(len(o.b.Output))
		nonZero := c.OrN(o.b.Output...)
		minusOne, _ := c.Sub(o.b.Output, c.ConstWord(apint.One(w)))
		masked := c.AndWord(o.b.Output, minusOne)
		o.pow2Lit = c.And(nonZero, c.OrN(masked...).Not())
		o.havePow2 = true
	}
	res, ok := e.solveAssuming("non-pow2", classValidity, nil, o.s, o.b.WellDefined, o.pow2Lit.Not())
	if ok && res {
		e.recordWitness(o)
	}
	return res, ok
}

// outsideWindow reports v ∉ [lo, lo+size) with the engine's wrapping
// conventions (size 0 = empty window, lo+size == lo = full window).
func outsideWindow(v, lo, size apint.Int) bool {
	if size.IsZero() {
		return true
	}
	hi := lo.Add(size)
	if hi.Eq(lo) {
		return false
	}
	if lo.ULT(hi) {
		return !(v.UGE(lo) && v.ULT(hi))
	}
	return !(v.UGE(lo) || v.ULT(hi))
}

func (e *SATEngine) incOutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	if w, hit := e.witness(func(v apint.Int) bool { return outsideWindow(v, lo, size) }); hit {
		e.stats.Pruned++
		return w, true, true
	}
	o := e.output()
	assumptions := make([]sat.Lit, 1, 2*len(o.b.Output)+3)
	assumptions[0] = o.b.WellDefined // empty window: everything is outside
	if !size.IsZero() {
		hi := lo.Add(size)
		if hi.Eq(lo) {
			return apint.Int{}, false, true // full window: nothing outside
		}
		win := o.window()
		assumptions = win.bind(append(assumptions, win.outside), lo, hi)
	}
	res, ok := e.solveAssuming("outside", classExistence, windowTag(lo, size), o.s, assumptions...)
	if !ok || !res {
		return apint.Int{}, res, ok
	}
	return e.recordWitness(o), true, true
}

// miterSession is the per-variable shared circuit for demanded-bits
// queries: a second copy of the function whose input v has each bit
// flipped by a selector.
type miterSession struct {
	s      *sat.Solver
	c      *bitblast.Circuit
	differ sat.Lit       // outputs differ ∧ both copies well-defined
	in     bitblast.Word // v's bits in the first copy
	sel    []sat.Lit     // sel[i] flips bit i in the second copy
}

func (e *SATEngine) miter(v *ir.Inst) *miterSession {
	if m, ok := e.miters[v]; ok {
		return m
	}
	s := sat.New()
	b1 := e.blast(s)
	c := b1.C

	orig := b1.Inputs[v]
	sel := c.FreshWord(v.Width)
	inputs2 := make(map[*ir.Inst]bitblast.Word, len(b1.Inputs))
	for iv, word := range b1.Inputs {
		inputs2[iv] = word
	}
	inputs2[v] = c.XorWord(orig, sel)
	b2 := bitblast.BlastWith(c, e.f, inputs2)

	m := &miterSession{
		s:      s,
		c:      c,
		differ: c.AndN(b1.WellDefined, b2.WellDefined, c.Eq(b1.Output, b2.Output).Not()),
		in:     orig,
		sel:    sel,
	}
	if e.miters == nil {
		e.miters = make(map[*ir.Inst]*miterSession)
	}
	e.miters[v] = m
	return m
}

func (e *SATEngine) incForcedBitMatters(v *ir.Inst, bit uint, val bool) (bool, bool) {
	m := e.miter(v)
	assumptions := make([]sat.Lit, 0, len(m.sel)+2)
	from := m.in[bit] // the first copy runs with the bit at ¬val
	if val {
		from = from.Not()
	}
	assumptions = append(assumptions, m.differ, from)
	for i, sl := range m.sel {
		if uint(i) != bit {
			sl = sl.Not()
		}
		assumptions = append(assumptions, sl)
	}
	return e.solveAssuming("forced-bit", classValidity, forcedBitTag(v, bit), m.s, assumptions...)
}
