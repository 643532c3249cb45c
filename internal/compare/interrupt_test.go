package compare

import (
	"context"
	"testing"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// slowCorpus holds 20-, 19-, 18-, and 17-bit factoring instances from
// the solver's deadline tests: a single CanBeZero query on one takes the
// CDCL solver minutes, so these keep workers busy until cancellation.
// Distinct widths defeat canonical grouping, so there are several slow
// groups to interrupt; the 17-bit group, dispatched last, has two members.
func slowCorpus() []harvest.Expr {
	s4 := "%a:i17 = var\n%b:i17 = var\n%x:i34 = zext %a\n%y:i34 = zext %b\n%0:i34 = mul %x, %y\n%1:i34 = xor %0, 11220699701:i34\ninfer %1"
	return []harvest.Expr{
		{Name: "s1", F: ir.MustParse("%a:i20 = var\n%b:i20 = var\n%x:i40 = zext %a\n%y:i40 = zext %b\n%0:i40 = mul %x, %y\n%1:i40 = xor %0, 389311259137:i40\ninfer %1"), Freq: 1},
		{Name: "s2", F: ir.MustParse("%a:i19 = var\n%b:i19 = var\n%x:i38 = zext %a\n%y:i38 = zext %b\n%0:i38 = mul %x, %y\n%1:i38 = xor %0, 109243065467:i38\ninfer %1"), Freq: 1},
		{Name: "s3", F: ir.MustParse("%a:i18 = var\n%b:i18 = var\n%x:i36 = zext %a\n%y:i36 = zext %b\n%0:i36 = mul %x, %y\n%1:i36 = xor %0, 22712542403:i36\ninfer %1"), Freq: 1},
		{Name: "s4", F: ir.MustParse(s4), Freq: 1},
		{Name: "s4-again", F: ir.MustParse(s4), Freq: 1},
	}
}

func checkPartialReport(t *testing.T, rep *Report, corpusLen int, elapsed time.Duration) {
	t.Helper()
	if elapsed > 30*time.Second {
		t.Fatalf("RunContext took %v after cancel; workers did not exit promptly", elapsed)
	}
	if !rep.Interrupted {
		t.Fatalf("report not marked interrupted (skipped=%d)", rep.Skipped)
	}
	if rep.Skipped == 0 {
		t.Fatal("no entries skipped; cancel landed too late to test interruption")
	}
	// Well-formed: every corpus entry is either aggregated or skipped,
	// and rows are internally consistent.
	analyzed := rep.Rows[harvest.KnownBits].Exprs
	if analyzed+rep.Skipped != corpusLen {
		t.Fatalf("analyzed %d + skipped %d != corpus %d", analyzed, rep.Skipped, corpusLen)
	}
	for a, row := range rep.Rows {
		if row.Total() < 0 || row.Exprs > corpusLen {
			t.Fatalf("row %s malformed: %+v", a, row)
		}
	}
}

// TestRunContextCancelMidCorpus: cancelling mid-run must stop workers at
// the next query-check interval and still yield a well-formed partial
// report, with or without a persistent cache; skipped groups count every
// member.
func TestRunContextCancelMidCorpus(t *testing.T) {
	for _, cache := range []*rescache.Cache{nil, rescache.New()} {
		c := &Comparator{
			Analyzer: &llvmport.Analyzer{},
			Workers:  2,
			Cache:    cache,
			Metrics:  metrics.NewRegistry(),
		}
		corpus := slowCorpus()
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(200*time.Millisecond, cancel)

		start := time.Now()
		rep := c.RunContext(ctx, corpus)
		checkPartialReport(t, rep, len(corpus), time.Since(start))
		timer.Stop()
		cancel()

		if got := c.Metrics.Gauge("workers_busy").Value(); got != 0 {
			t.Fatalf("workers_busy = %d after run, want 0", got)
		}
		if c.Metrics.Counter("exprs_skipped").Value() == 0 {
			t.Fatal("skip counter not recorded")
		}
	}
}

// TestOracleCachedNeverMemoizesCancelled: results computed under a
// cancelled context are degraded by query aborts and must not poison the
// persistent cache (a resumed campaign would silently diverge). The
// oracle set is computed directly so the cancel provably lands during,
// not before, the group analysis.
func TestOracleCachedNeverMemoizesCancelled(t *testing.T) {
	cache := rescache.New()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: cache}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every query degrades immediately, as mid-flight ones would

	cn := canon.Canonicalize(ir.MustParse("%x:i8 = var\ninfer %x"))
	o := c.oracleCached(ctx, cn, cache)
	if !o.Known.Exhausted {
		t.Fatal("cancelled oracle not degraded; test premise broken")
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled computation memoized %d entries; cache poisoned", n)
	}

	// The same expression analyzed under a live context memoizes normally.
	o2 := c.oracleCached(context.Background(), cn, cache)
	if o2.Known.Exhausted {
		t.Fatal("clean recompute unexpectedly exhausted")
	}
	if cache.Len() == 0 {
		t.Fatal("clean recompute did not memoize")
	}
}
