package main

import (
	"fmt"
	"sync"
	"time"

	"dfcheck/internal/absint"
	"dfcheck/internal/apint"
	"dfcheck/internal/bitblast"
	"dfcheck/internal/canon"
	"dfcheck/internal/eval"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/oracle"
	"dfcheck/internal/sat"
	"dfcheck/internal/solver"
)

// The traced mode re-enacts what precision-table does with a corpus by
// calling each layer's public functions in the comparator's order, and
// times every call from outside. It is never used for end-to-end numbers.

// exprTimeout is precision-table's default -expr-timeout.
const exprTimeout = 5 * time.Minute

// tracedEngine times every query the oracle poses, so an oracle call's
// span splits into solver time (these children) and the oracle's own
// bookkeeping. Methods it does not time are forwarded by the embedding.
type tracedEngine struct {
	solver.Engine
	rec    *recorder
	name   string // "solver.enum" or "solver.sat"
	parent int    // the oracle call the next queries belong to
	id     string
}

func (e *tracedEngine) span() func() {
	i := e.rec.begin(e.name, e.parent, e.id)
	return func() { e.rec.end(i) }
}

func (e *tracedEngine) Feasible() (bool, bool) {
	defer e.span()()
	return e.Engine.Feasible()
}

func (e *tracedEngine) OutputBitCanBe(i uint, val bool) (bool, bool) {
	defer e.span()()
	return e.Engine.OutputBitCanBe(i, val)
}

func (e *tracedEngine) SignBitsViolated(k uint) (bool, bool) {
	defer e.span()()
	return e.Engine.SignBitsViolated(k)
}

func (e *tracedEngine) CanBeZero() (bool, bool) {
	defer e.span()()
	return e.Engine.CanBeZero()
}

func (e *tracedEngine) CanBeNonPowerOfTwo() (bool, bool) {
	defer e.span()()
	return e.Engine.CanBeNonPowerOfTwo()
}

func (e *tracedEngine) OutputOutside(lo, size apint.Int) (apint.Int, bool, bool) {
	defer e.span()()
	return e.Engine.OutputOutside(lo, size)
}

func (e *tracedEngine) ForcedBitMatters(v *ir.Inst, bit uint, val bool) (bool, bool) {
	defer e.span()()
	return e.Engine.ForcedBitMatters(v, bit, val)
}

// Oracle analyses grouped the way the per-layer metrics report them.
const (
	aKnown = iota
	aSign
	aPredicates
	aRange
	aDemanded
	numGroups
)

var groupNames = [numGroups]string{"known_bits", "sign_bits", "predicates", "range", "demanded"}

// groupWork is the work one analysis group cost on one expression;
// exhausted counts the Table 1 cells its exhausted results cost.
type groupWork struct {
	seconds                       float64
	queries, conflicts, exhausted int64
}

// oracleRun is one expression's oracle pass.
type oracleRun struct {
	enum   bool
	stats  solver.Stats
	groups [numGroups]groupWork
}

func (o oracleRun) seconds() float64 {
	s := 0.0
	for _, g := range o.groups {
		s += g.seconds
	}
	return s
}

// tableTrace is what one re-enactment of a Table 1 run measured.
type tableTrace struct {
	entries, unique int
	runs            []oracleRun // per entry, or per canonical group when grouped
	lintChecks      int
}

// reenactor runs the re-enactment with spans on (rec set) or off.
type reenactor struct {
	rec     *recorder
	workers int
	an      *llvmport.Analyzer
}

// parallel runs job(i) for i in [0, n) on the worker count, like the
// comparator's worker pool.
func (re *reenactor) parallel(n int, job func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < re.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// timed runs fn inside a span named name.
func (re *reenactor) timed(name string, parent int, id string, fn func()) {
	i := re.rec.begin(name, parent, id)
	fn()
	re.rec.end(i)
}

// table re-enacts a precision-table run over corpus, starting from each
// entry's text. Ungrouped it follows the default (uncached) path: every
// entry is parsed, analyzed, solved and linted. Grouped it follows the
// cached path the fact service's warm table takes: one oracle pass per
// canonical form, then the lint per member.
func (re *reenactor) table(corpus []harvest.Expr, texts []string, grouped bool, parent int) (*tableTrace, error) {
	n := len(corpus)
	fs := make([]*ir.Function, n)
	cns := make([]*canon.Canon, n)
	errs := make([]error, n)
	checks := make([]int, n)
	tt := &tableTrace{entries: n}
	// front parses and canonicalizes entry i inside its expression span.
	front := func(i, x int) {
		id := corpus[i].Name
		re.timed("ir.parse", x, id, func() { fs[i], errs[i] = ir.Parse(texts[i]) })
		if errs[i] == nil {
			re.timed("canon.canonicalize", x, id, func() { cns[i] = canon.Canonicalize(fs[i]) })
		}
	}
	lint := func(i, x int, fa *llvmport.Facts) {
		re.timed("absint.lint", x, corpus[i].Name, func() { _, checks[i] = absint.CheckFacts(fs[i], fa) })
	}
	if !grouped {
		tt.runs = make([]oracleRun, n)
		re.parallel(n, func(i int) {
			x := re.rec.begin("expr", parent, corpus[i].Name)
			defer re.rec.end(x)
			front(i, x)
			if errs[i] != nil {
				return
			}
			var fa *llvmport.Facts
			re.timed("llvmport.analyze", x, corpus[i].Name, func() { fa = re.an.Analyze(fs[i]) })
			tt.runs[i] = re.oracle(fs[i], x, corpus[i].Name)
			lint(i, x, fa)
		})
	} else {
		re.parallel(n, func(i int) {
			x := re.rec.begin("expr", parent, corpus[i].Name)
			front(i, x)
			re.rec.end(x)
		})
		if err := firstErr(errs); err != nil {
			return nil, err
		}
		groupOf := map[string]int{}
		var reps []int
		for i, cn := range cns {
			if _, ok := groupOf[cn.Key]; !ok {
				groupOf[cn.Key] = len(reps)
				reps = append(reps, i)
			}
		}
		tt.runs = make([]oracleRun, len(reps))
		re.parallel(len(reps), func(g int) {
			i := reps[g]
			x := re.rec.begin("expr", parent, corpus[i].Name)
			defer re.rec.end(x)
			re.timed("llvmport.analyze", x, corpus[i].Name, func() { re.an.Analyze(cns[i].F) })
			tt.runs[g] = re.oracle(cns[i].F, x, corpus[i].Name)
		})
		for i := range corpus {
			x := re.rec.begin("expr", parent, corpus[i].Name)
			var fa *llvmport.Facts
			re.timed("llvmport.analyze", x, corpus[i].Name, func() { fa = re.an.Analyze(fs[i]) })
			lint(i, x, fa)
			re.rec.end(x)
		}
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for i := range cns {
		keys[cns[i].Key] = true
		tt.lintChecks += checks[i]
	}
	tt.unique = len(keys)
	return tt, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("parse corpus entry: %w", err)
		}
	}
	return nil
}

// oracle runs the eight oracle algorithms on f in the comparator's order,
// on the engine precision-table would pick: exhaustive enumeration at or
// below solver.DefaultEnumCutoff summed input bits, single-search SAT
// above it. SAT expressions are also bit-blasted once on a fresh solver,
// timing the circuit construction on its own.
func (re *reenactor) oracle(f *ir.Function, parent int, id string) oracleRun {
	var run oracleRun
	deadline := time.Now().Add(exprTimeout)
	var eng solver.Engine
	if eval.TotalInputBits(f) <= solver.DefaultEnumCutoff {
		re.timed("solver.new", parent, id, func() {
			en := solver.NewEnum(f)
			en.Deadline = deadline
			eng, run.enum = en, true
		})
	} else {
		re.timed("bitblast.blast", parent, id, func() { bitblast.Blast(sat.New(), f) })
		re.timed("solver.new", parent, id, func() {
			se := solver.NewSAT(f, 0)
			se.Deadline = deadline
			eng = se
		})
	}
	var te *tracedEngine
	if re.rec != nil {
		te = &tracedEngine{Engine: eng, rec: re.rec, name: "solver.sat", id: id}
		if run.enum {
			te.name = "solver.enum"
		}
		eng = te
	}
	// call runs one oracle algorithm. fn reports whether its result is
	// exhausted; an exhausted result costs cells Table 1 cells (one per
	// input variable for demanded bits).
	call := func(g, cells int, fn func() bool) {
		s := re.rec.begin("oracle."+groupNames[g], parent, id)
		if te != nil {
			te.parent = s
		}
		before := eng.Stats()
		start := time.Now()
		exhausted := fn()
		run.groups[g].seconds += time.Since(start).Seconds()
		re.rec.end(s)
		after := eng.Stats()
		run.groups[g].queries += after.Queries - before.Queries
		run.groups[g].conflicts += after.Conflicts - before.Conflicts
		if exhausted {
			run.groups[g].exhausted += int64(cells)
		}
	}
	var sd oracle.Seed
	re.timed("oracle.seed", parent, id, func() { sd = oracle.ComputeSeed(f) })
	var known oracle.KnownBitsResult
	call(aKnown, 1, func() bool { known = oracle.KnownBitsSeeded(eng, f, sd); return known.Exhausted })
	if known.Feasible {
		re.timed("oracle.seed", parent, id, func() { sd.EnrichFromKnown(known.Bits, !known.Exhausted) })
	}
	call(aSign, 1, func() bool { return oracle.SignBitsSeeded(eng, f, sd).Exhausted })
	call(aPredicates, 1, func() bool { return oracle.NonZeroSeeded(eng, f, sd).Exhausted })
	call(aPredicates, 1, func() bool { return oracle.NegativeSeeded(eng, f, sd).Exhausted })
	call(aPredicates, 1, func() bool { return oracle.NonNegativeSeeded(eng, f, sd).Exhausted })
	call(aPredicates, 1, func() bool { return oracle.PowerOfTwoSeeded(eng, f, sd).Exhausted })
	call(aRange, 1, func() bool { return oracle.IntegerRangeSeeded(eng, f, sd).Exhausted })
	call(aDemanded, len(f.Vars), func() bool { return oracle.DemandedBits(eng, f).Exhausted })
	run.stats = eng.Stats()
	return run
}

// statsMismatches counts oracle runs whose final engine statistics differ
// between two re-enactments of the same corpus.
func statsMismatches(a, b []oracleRun) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if a[i].stats != b[i].stats {
			n++
		}
	}
	return n
}
