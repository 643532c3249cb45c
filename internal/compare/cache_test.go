package compare

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"dfcheck/internal/canon"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// dupCorpus builds a small duplication-heavy corpus: generated
// expressions each appearing as several shuffled alpha-variants, the
// shape the paper reports for the SPEC harvest (§3.1).
func dupCorpus() []harvest.Expr {
	return harvest.DuplicationShaped(harvest.Config{
		Seed:     42,
		NumExprs: 12,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 8, Weight: 3}, {Width: 4, Weight: 1}},
	}, 4)
}

// referenceReport folds the single-expression pipeline (what CompareExpr
// runs) over every corpus entry: each entry is compared on its own form,
// with no canonical grouping and no cache — the report Run must
// reproduce.
func referenceReport(c *Comparator, corpus []harvest.Expr) *Report {
	rep := newReport()
	if c.NWay {
		rep.NWay = &NWayStats{}
	}
	for _, e := range corpus {
		results, checks, nw := c.compareOne(context.Background(), e.F)
		rep.ConsistencyChecks += checks
		rep.NWay.add(nw)
		rep.absorb(e, results)
	}
	return rep
}

// stripElapsed zeroes the timing fields a grouped run replays, leaving
// only the semantic content for comparison.
func stripElapsed(rep *Report) *Report {
	out := &Report{Rows: make(map[harvest.Analysis]*Row), Findings: rep.Findings}
	for a, row := range rep.Rows {
		r := *row
		r.CPUTime = 0
		out.Rows[a] = &r
	}
	return out
}

func requireSameReport(t *testing.T, want, got *Report, label string) {
	t.Helper()
	w, g := stripElapsed(want), stripElapsed(got)
	if !reflect.DeepEqual(w.Rows, g.Rows) {
		t.Errorf("%s: rows differ:\nwant %v\ngot  %v", label, dumpRows(w), dumpRows(g))
	}
	if len(w.Findings) != len(g.Findings) {
		t.Fatalf("%s: %d findings, want %d", label, len(g.Findings), len(w.Findings))
	}
	for i := range w.Findings {
		if !reflect.DeepEqual(stripFindingTime(w.Findings[i]), stripFindingTime(g.Findings[i])) {
			t.Errorf("%s: finding %d differs:\nwant %+v\ngot  %+v", label, i, w.Findings[i], g.Findings[i])
		}
	}
}

func stripFindingTime(f Finding) Finding {
	f.Result.Elapsed = 0
	return f
}

func dumpRows(rep *Report) map[harvest.Analysis]Row {
	out := make(map[harvest.Analysis]Row, len(rep.Rows))
	for a, r := range rep.Rows {
		out[a] = *r
	}
	return out
}

// TestCachedRunMatchesUncached: Run groups the corpus by canonical form
// whether or not it has a persistent cache, and must produce the same
// Table 1 rows and the same findings as comparing every entry on its own,
// sequentially and with a worker pool.
func TestCachedRunMatchesUncached(t *testing.T) {
	corpus := dupCorpus()
	want := referenceReport(cleanComparator(), corpus)
	for _, cached := range []bool{false, true} {
		for _, workers := range []int{0, 8} {
			c := cleanComparator()
			c.Workers = workers
			if cached {
				c.Cache = rescache.New()
			}
			got := c.Run(corpus)
			requireSameReport(t, want, got, fmt.Sprintf("cached=%t workers=%d", cached, workers))

			if got.Cache.TotalExprs != len(corpus) {
				t.Errorf("TotalExprs = %d, want %d", got.Cache.TotalExprs, len(corpus))
			}
			if got.Cache.UniqueExprs >= len(corpus) {
				t.Errorf("no deduplication: %d unique of %d — the corpus is duplication-shaped",
					got.Cache.UniqueExprs, len(corpus))
			}
		}
	}
}

// TestDefaultRunSolvesEachCanonicalKeyOnce: a Run without a cache solves
// each canonical key of a duplication-shaped corpus once, sequentially
// and on a worker pool — one compared expression per key, and exactly the
// solver work of a run over one representative per key.
func TestDefaultRunSolvesEachCanonicalKeyOnce(t *testing.T) {
	corpus := dupCorpus()
	seen := map[string]bool{}
	var unique []harvest.Expr
	for _, e := range corpus {
		if k := canon.Canonicalize(e.F).Key; !seen[k] {
			seen[k] = true
			unique = append(unique, e)
		}
	}
	if len(unique) == len(corpus) {
		t.Fatal("corpus has no duplicates; test premise broken")
	}
	run := func(workers int, corpus []harvest.Expr) (*Report, metrics.Snapshot) {
		reg := metrics.NewRegistry()
		// Single-search SAT keeps the query counts deterministic.
		c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: workers, Portfolio: -1, Metrics: reg}
		return c.Run(corpus), reg.Snapshot()
	}
	_, uniqueSnap := run(0, unique)
	for _, workers := range []int{0, 8} {
		rep, snap := run(workers, corpus)
		if got := snap.Counters["exprs_compared"]; got != int64(len(unique)) {
			t.Errorf("workers=%d: exprs_compared = %d, want one per canonical key (%d)", workers, got, len(unique))
		}
		if got, want := snap.Counters["solver_queries"], uniqueSnap.Counters["solver_queries"]; got != want {
			t.Errorf("workers=%d: solver_queries = %d, want %d (the unique set's cost)", workers, got, want)
		}
		if got := rep.Rows[harvest.KnownBits].Total(); got != len(corpus) {
			t.Errorf("workers=%d: known-bits row counts %d entries, want %d", workers, got, len(corpus))
		}
		if rep.Cache == nil || rep.Cache.UniqueExprs != len(unique) {
			t.Errorf("workers=%d: report cache stats %+v, want UniqueExprs %d", workers, rep.Cache, len(unique))
		}
	}
}

// TestCachedRunFindingsPerEntry: findings from a grouped run must carry
// each duplicate's own name and source text, not the canonical
// representative's — grouping dedups work, not reports.
func TestCachedRunFindingsPerEntry(t *testing.T) {
	trigger := ir.MustParse(harvest.SoundnessTriggers[1].Source) // PR23011 srem sign bits
	rng := rand.New(rand.NewSource(5))
	corpus := []harvest.Expr{
		{Name: "orig", F: trigger, Freq: 1},
		{Name: "copy-a", F: harvest.ShuffledCopy(trigger, rng), Freq: 1},
		{Name: "copy-b", F: harvest.ShuffledCopy(trigger, rng), Freq: 1},
	}
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Cache:    rescache.New(),
	}
	rep := c.Run(corpus)
	if rep.Cache.UniqueExprs != 1 {
		t.Fatalf("UniqueExprs = %d, want 1 (all entries are alpha-variants)", rep.Cache.UniqueExprs)
	}
	seen := map[string]string{}
	for _, f := range rep.Findings {
		seen[f.ExprName] = f.Source
	}
	for i, e := range corpus {
		src, ok := seen[e.Name]
		if !ok {
			t.Errorf("no finding for %s", e.Name)
			continue
		}
		if src != e.F.String() {
			t.Errorf("finding %d: source is not the entry's own text:\nwant %q\ngot  %q", i, e.F.String(), src)
		}
	}
	// Comparing each entry on its own must find the same bugs on the
	// same entries.
	c2 := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}}}
	requireSameReport(t, referenceReport(c2, corpus), rep, "bug-injected cached run")
}

// TestWarmCacheSecondRun: a second run over the same corpus must be all
// hits and report identically.
func TestWarmCacheSecondRun(t *testing.T) {
	corpus := dupCorpus()
	c := cleanComparator()
	c.Cache = rescache.New()
	first := c.Run(corpus)
	second := c.Run(corpus)
	if second.Cache.Misses != 0 {
		t.Fatalf("second run had %d misses, want 0", second.Cache.Misses)
	}
	if second.Cache.Hits == 0 {
		t.Fatal("second run recorded no hits")
	}
	// With Elapsed replayed from the cache, even the timings must agree.
	if !reflect.DeepEqual(dumpRows(first), dumpRows(second)) {
		t.Errorf("warm rerun rows differ (timings should replay):\nfirst  %v\nsecond %v",
			dumpRows(first), dumpRows(second))
	}
	requireSameReport(t, first, second, "warm rerun")
}

// TestCacheFileAcrossRuns: save after a cold run, load into a fresh
// cache, and the next run must be all hits with an identical report —
// the artifact's persist-to-Redis workflow.
func TestCacheFileAcrossRuns(t *testing.T) {
	corpus := dupCorpus()
	path := filepath.Join(t.TempDir(), "oracle.cache")

	c1 := cleanComparator()
	c1.Cache = rescache.New()
	first := c1.Run(corpus)
	if err := c1.Cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	c2 := cleanComparator()
	c2.Cache = rescache.New()
	if err := c2.Cache.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	second := c2.Run(corpus)
	if second.Cache.Misses != 0 {
		t.Fatalf("run against loaded cache had %d misses, want 0", second.Cache.Misses)
	}
	if !reflect.DeepEqual(dumpRows(first), dumpRows(second)) {
		t.Errorf("reloaded-cache rows differ:\nfirst  %v\nsecond %v", dumpRows(first), dumpRows(second))
	}
	requireSameReport(t, first, second, "reloaded cache run")
}

// TestCacheKeyedOnConfig: results computed under one bug configuration
// must not be served to a comparator in another.
func TestCacheKeyedOnConfig(t *testing.T) {
	corpus := []harvest.Expr{
		{Name: "t", F: ir.MustParse(harvest.SoundnessTriggers[1].Source), Freq: 1},
	}
	cache := rescache.New()

	clean := cleanComparator()
	clean.Cache = cache
	cleanRep := clean.Run(corpus)
	if len(cleanRep.Findings) != 0 {
		t.Fatalf("clean compiler produced findings: %v", cleanRep.Findings)
	}

	buggy := &Comparator{
		Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{SRemSignBits: true}},
		Cache:    cache,
	}
	buggyRep := buggy.Run(corpus)
	if len(buggyRep.Findings) == 0 {
		t.Fatal("injected bug not detected when sharing a cache with a clean run")
	}
}
