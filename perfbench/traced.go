package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/compare"
	"dfcheck/internal/factsvc"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/rescache"
)

// traceBatches is the number of request batches in each of the traced
// facts-warm passes.
const traceBatches = 250

// factsTrace is what one re-enactment of facts-warm measured beyond its
// warm table.
type factsTrace struct {
	warm                         *tableTrace
	answers, collapsed, rejected int
	hits, lookups                uint64
	cacheEntries                 int
	requestS, submitS            float64
	oracleFactsS                 float64
	problems                     []string
	failed, attempted            int64
}

// traceRun is one re-enactment: the spans it recorded (nil when off), its
// wall time, and what it measured.
type traceRun struct {
	rec   *recorder
	wall  float64
	table *tableTrace
	facts *factsTrace
}

// runTraced re-enacts the workload three times, with spans off, on and
// off again, and reports the per-layer metrics of the traced run.
func runTraced(o options, nproc int) (*outcome, error) {
	var corpus []harvest.Expr
	switch o.workload {
	case "table1-tail":
		corpus = tailCorpus(o.seed)
	case "table1-dup":
		corpus = dupCorpus(o.seed)
	case "facts-warm":
		corpus = warmCorpus()
	}
	texts := make([]string, len(corpus))
	for i, e := range corpus {
		texts[i] = e.F.String()
	}
	var batches [3][]factsBatch
	if o.workload == "facts-warm" {
		used := canonKeys(corpus)
		for p := range batches {
			batches[p] = factsBatches(o.seed, p, traceBatches, corpus, used)
		}
	}
	once := func(rec *recorder) (*traceRun, error) {
		re := &reenactor{rec: rec, workers: nproc, an: &llvmport.Analyzer{}}
		start := time.Now()
		root := rec.begin("run", -1, o.workload)
		tr := &traceRun{rec: rec}
		var err error
		if o.workload == "facts-warm" {
			tr.facts, err = re.facts(corpus, texts, batches, root)
			if tr.facts != nil {
				tr.table = tr.facts.warm
			}
		} else {
			tr.table, err = re.table(corpus, texts, false, root)
		}
		rec.end(root)
		tr.wall = time.Since(start).Seconds()
		return tr, err
	}
	// Off, on, off: the overhead compares the traced run with the mean of
	// the untraced runs around it, which cancels steady host drift.
	var runs [3]*traceRun
	for i := range runs {
		var rec *recorder
		if i == 1 {
			rec = newRecorder()
		}
		var err error
		if runs[i], err = once(rec); err != nil {
			return nil, err
		}
	}
	on := runs[1]
	out := &outcome{correct: true}
	for _, off := range []*traceRun{runs[0], runs[2]} {
		if n := statsMismatches(on.table.runs, off.table.runs); n > 0 {
			out.fail(fmt.Sprintf("wrapped engines' Stats() differ from an unwrapped run on %d of %d expressions", n, len(on.table.runs)))
		}
	}
	layerMetrics(out, on, (runs[0].wall+runs[2].wall)/2)
	out.attempted = int64(on.table.entries)
	if f := on.facts; f != nil {
		out.attempted += f.attempted
		out.failed += f.failed
		for _, p := range f.problems {
			out.fail(p)
		}
	}
	return out, nil
}

// layerMetrics fills the per-layer metrics from the traced run; offWall
// is the wall time of the same re-enactment untraced.
func layerMetrics(out *outcome, on *traceRun, offWall float64) {
	sp := on.rec.summarize()
	tt := on.table
	var st struct{ queries, enumQ, pruned, exhausted, conflicts, props, decisions, learned, gates, deduped, clauses int64 }
	enumExprs, satExprs := 0, 0
	var groups [numGroups]groupWork
	exprMax, exprSum := 0.0, 0.0
	for _, r := range tt.runs {
		if r.enum {
			enumExprs++
		} else {
			satExprs++
		}
		s := r.stats
		st.queries += s.Queries
		st.enumQ += s.EnumQueries
		st.pruned += s.Pruned
		st.exhausted += s.Exhausted
		st.conflicts += s.Conflicts
		st.props += s.Propagations
		st.decisions += s.Decisions
		st.learned += s.Learned
		st.gates += s.GatesBuilt
		st.deduped += s.GatesDeduped
		st.clauses += s.Clauses
		for g := range groups {
			groups[g].seconds += r.groups[g].seconds
			groups[g].queries += r.groups[g].queries
			groups[g].conflicts += r.groups[g].conflicts
			groups[g].exhausted += r.groups[g].exhausted
		}
		exprMax = max(exprMax, r.seconds())
		exprSum += r.seconds()
	}
	out.add("compare.entries", float64(tt.entries), "count")
	out.add("compare.canon_unique_share", float64(tt.unique)/float64(tt.entries), "share")
	out.add("ir.parse_s", sp.total["ir.parse"], "s")
	out.add("canon.canonicalize_s", sp.total["canon.canonicalize"], "s")
	out.add("llvmport.analyze_s", sp.total["llvmport.analyze"], "s")
	out.add("absint.lint_s", sp.total["absint.lint"], "s")
	out.add("absint.lint_checks", float64(tt.lintChecks), "count")
	out.add("solver.enum_exprs", float64(enumExprs), "count")
	out.add("solver.sat_exprs", float64(satExprs), "count")
	out.add("solver.queries", float64(st.queries), "count")
	out.add("solver.enum_queries", float64(st.enumQ), "count")
	out.add("solver.pruned_queries", float64(st.pruned), "count")
	out.add("solver.exhausted_queries", float64(st.exhausted), "count")
	out.add("solver.enum_busy_s", sp.total["solver.enum"], "s")
	out.add("solver.sat_busy_s", sp.total["solver.sat"], "s")
	out.add("sat.conflicts", float64(st.conflicts), "count")
	out.add("sat.propagations", float64(st.props), "count")
	out.add("sat.decisions", float64(st.decisions), "count")
	out.add("sat.learned", float64(st.learned), "count")
	out.add("bitblast.blast_s", sp.total["bitblast.blast"], "s")
	out.add("bitblast.gates_built", float64(st.gates), "count")
	out.add("bitblast.gates_deduped", float64(st.deduped), "count")
	out.add("bitblast.clauses", float64(st.clauses), "count")
	for g, name := range groupNames {
		out.add("oracle."+name+"_s", sp.total["oracle."+name], "s")
		out.add("oracle."+name+"_self_s", sp.self["oracle."+name], "s")
		out.add("oracle."+name+"_queries", float64(groups[g].queries), "count")
		out.add("oracle."+name+"_conflicts", float64(groups[g].conflicts), "count")
		out.add("oracle."+name+"_exhausted", float64(groups[g].exhausted), "count")
	}
	out.add("oracle.seed_s", sp.total["oracle.seed"], "s")
	out.add("solver.new_s", sp.total["solver.new"], "s")
	out.add("oracle.expr_max_s", exprMax, "s")
	share := 0.0
	if exprSum > 0 {
		share = exprMax / exprSum
	}
	out.add("oracle.expr_max_share", share, "share")

	var f factsTrace
	if on.facts != nil {
		f = *on.facts
	}
	collapsedShare, hitShare := 0.0, 0.0
	if f.answers > 0 {
		collapsedShare = float64(f.collapsed) / float64(f.answers)
	}
	if f.lookups > 0 {
		hitShare = float64(f.hits) / float64(f.lookups)
	}
	out.add("compare.oracle_facts_s", f.oracleFactsS, "s")
	out.add("factsvc.request_s", f.requestS, "s")
	out.add("factsvc.submit_wait_s", f.submitS, "s")
	out.add("factsvc.http_s", f.requestS-f.submitS, "s")
	out.add("factsvc.rejected", float64(f.rejected), "count")
	out.add("factsvc.collapsed_share", collapsedShare, "share")
	out.add("rescache.hit_share", hitShare, "share")
	out.add("rescache.entries", float64(f.cacheEntries), "count")

	out.add("trace.unaccounted_share", sp.unaccounted, "share")
	out.add("trace.overhead_share", on.wall/offWall-1, "share")
	out.add("trace.spans", float64(len(on.rec.spans)), "count")
	out.add("trace.wall_s", on.wall, "s")
	out.add("trace.untraced_wall_s", offWall, "s")
}

// facts re-enacts facts-warm in process: the warm table through the
// layers, then the real warm-up (compare.Comparator.Run on a fresh cache,
// as precision-table -factsvc does before /readyz), then three passes of
// request batches against compare.Comparator.NewFactService: over HTTP,
// through Service.Submit/Ticket.Wait directly, and through
// Comparator.OracleFacts. Each pass has its own never-seen misses.
func (re *reenactor) facts(warm []harvest.Expr, texts []string, batches [3][]factsBatch, root int) (*factsTrace, error) {
	ft := &factsTrace{}
	var err error
	if ft.warm, err = re.table(warm, texts, true, root); err != nil {
		return nil, err
	}
	c := &compare.Comparator{
		Analyzer:    &llvmport.Analyzer{},
		Workers:     re.workers,
		ExprTimeout: exprTimeout,
		Consistency: true,
		Cache:       rescache.NewSharded(rescache.DefaultShards),
	}
	re.timed("compare.run", root, "warm", func() { c.Run(warm) })
	svc, err := c.NewFactService(factsvc.Config{Workers: re.workers})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/facts", svc.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client := ts.Client()
	// One checker per path: the service labels demanded bits with the
	// canonical variable names, Comparator.OracleFacts with the
	// expression's own, so answers only compare within a path.
	var chks [3]*answerCheck
	for p := range chks {
		chks[p] = newAnswerCheck()
	}
	before := c.Cache.Stats()
	ctx := context.Background()

	for b, batch := range batches[0] {
		id := fmt.Sprintf("http-%d", b)
		s := re.rec.begin("factsvc.request", root, id)
		start := time.Now()
		res, err := postBatch(client, ts.URL, batch)
		ft.requestS += time.Since(start).Seconds()
		re.rec.end(s)
		if err != nil {
			return nil, err
		}
		chks[0].batch(batch, res)
	}
	for b, batch := range batches[1] {
		id := fmt.Sprintf("submit-%d", b)
		s := re.rec.begin("factsvc.submit_wait", root, id)
		start := time.Now()
		res := re.submitWait(ctx, svc, batch, s, id)
		ft.submitS += time.Since(start).Seconds()
		re.rec.end(s)
		chks[1].batch(batch, res)
	}
	for b, batch := range batches[2] {
		id := fmt.Sprintf("oracle-%d", b)
		res := queryResponse{Results: make([]exprAnswer, len(batch.exprs))}
		for i, src := range batch.exprs {
			res.Results[i].Expr = src
			var f *ir.Function
			re.timed("ir.parse", root, id, func() { f, err = ir.Parse(src) })
			if err != nil {
				return nil, fmt.Errorf("parse request expression: %w", err)
			}
			re.timed("canon.canonicalize", root, id, func() { canon.Canonicalize(f) })
			s := re.rec.begin("compare.oracle_facts", root, id)
			start := time.Now()
			res.Results[i].Facts = c.OracleFacts(ctx, f)
			ft.oracleFactsS += time.Since(start).Seconds()
			re.rec.end(s)
		}
		chks[2].batch(batch, res)
	}
	after := c.Cache.Stats()
	ft.hits = after.Hits - before.Hits
	ft.lookups = after.Hits + after.Misses - before.Hits - before.Misses
	ft.cacheEntries = c.Cache.Len()
	for _, chk := range chks {
		ft.answers += chk.answers
		ft.collapsed += chk.collapsed
		ft.rejected += chk.rejected
		ft.attempted += chk.attempted
		ft.failed += chk.failed
		ft.problems = append(ft.problems, chk.problems...)
	}
	return ft, nil
}

// submitWait is what the POST handler does with a batch, minus HTTP and
// JSON: parse each expression, submit them all, then wait for them all.
func (re *reenactor) submitWait(ctx context.Context, svc *factsvc.Service, batch factsBatch, parent int, id string) queryResponse {
	res := queryResponse{Results: make([]exprAnswer, len(batch.exprs))}
	tickets := make([]*factsvc.Ticket, len(batch.exprs))
	for i, src := range batch.exprs {
		res.Results[i].Expr = src
		var f *ir.Function
		var err error
		re.timed("ir.parse", parent, id, func() { f, err = ir.Parse(src) })
		if err != nil {
			res.Results[i].Error = "parse: " + err.Error()
			continue
		}
		tk, err := svc.Submit(f)
		switch {
		case errors.Is(err, factsvc.ErrSaturated):
			res.Results[i].Error = "queue saturated"
			res.Rejected++
		case err != nil:
			res.Results[i].Error = err.Error()
		default:
			tickets[i] = tk
		}
	}
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		res.Results[i].Collapsed = tk.Collapsed
		r, err := tk.Wait(ctx)
		if err != nil {
			res.Results[i].Error = err.Error()
			continue
		}
		res.Results[i].Facts = r.Facts
	}
	return res
}
