package compare

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

// A moderately hard expression: wide enough to skip the enumeration
// fast path, so the oracle pays real solver queries that the flight can
// save.
const flightExprSrc = "%x:i14 = var\n%y:i14 = var\n%0:i14 = mul %x, %y\n%1:i14 = xor %0, %y\ninfer %1"

// Duplicates in one sequential Run must NOT collapse in the flight:
// canonical grouping solves them once before any flight is needed, and
// Workers <= 1 bypasses the flight map entirely.
func TestFlightSequentialRunsDoNotCollapse(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: reg}
	f := ir.MustParse("%x:i8 = var\n%0:i8 = add 1:i8, %x\ninfer %0")
	c.Run([]harvest.Expr{{Name: "a", F: f, Freq: 1}, {Name: "b", F: f, Freq: 1}})
	if got := reg.Snapshot().Counters["flight_collapsed"]; got != 0 {
		t.Errorf("flight_collapsed = %d on a sequential run, want 0", got)
	}
}

// The per-(canonical key, analysis) flight: 8 goroutines querying the same
// expression through OracleFacts (the fact service's solve path) share
// one comparator with a cold sharded cache. Every (analysis) solve must
// happen exactly once — answered by the cache for late arrivals or by
// the flight for racers — never 8 times.
func TestCachedFlightDeduplicatesOracleFacts(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	c := &Comparator{
		Analyzer: &llvmport.Analyzer{},
		Workers:  n, // >1 arms the flight; OracleFacts runs on caller goroutines
		Cache:    rescache.New(),
		Metrics:  reg,
	}
	c.flightHook = func() {
		// Hold the first leader until all racers have reached the
		// flight; later leaders see the condition already satisfied.
		deadline := time.Now().Add(30 * time.Second)
		for c.flight.Collapsed() < n-1 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	f := ir.MustParse(flightExprSrc)
	var wg sync.WaitGroup
	factSets := make([][]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rendered []string
			for _, fc := range c.OracleFacts(context.Background(), ir.MustParse(flightExprSrc)) {
				rendered = append(rendered, fc.Analysis+"="+fc.Fact)
			}
			factSets[i] = rendered
		}(i)
	}
	wg.Wait()

	// Each analysis was solved at most once: a solo run of the same
	// expression bounds the concurrent total. (Engine state differs
	// slightly between a shared-engine solo run and per-leader engines,
	// so allow headroom — the point is the 8x redundancy is gone.)
	soloReg := metrics.NewRegistry()
	solo := &Comparator{Analyzer: &llvmport.Analyzer{}, Workers: 1, Metrics: soloReg}
	solo.Run([]harvest.Expr{{Name: "solo", F: f, Freq: 1}})
	soloQ := soloReg.Snapshot().Counters["solver_queries"]
	gotQ := reg.Snapshot().Counters["solver_queries"]
	if gotQ > 2*soloQ {
		t.Errorf("concurrent cached queries cost %d solver queries; solo costs %d — dedup failed", gotQ, soloQ)
	}
	if collapsed := c.flight.Collapsed(); collapsed < n-1 {
		t.Errorf("flight collapsed %d queries, want at least %d", collapsed, n-1)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(factSets[i], factSets[0]) {
			t.Errorf("goroutine %d facts differ:\n%v\nvs\n%v", i, factSets[i], factSets[0])
		}
	}
}

// OracleFacts must render identically with no cache, on a cache miss, and
// on a cache hit — including the demanded-bits remap through the
// canonical variable namespace.
func TestOracleFactsRenderingPathsAgree(t *testing.T) {
	src := "%a:i8 = var\n%b:i8 = var\n%0:i8 = and 15:i8, %a\n%1:i8 = or %0, %b\ninfer %1"
	ctx := context.Background()

	noCache := &Comparator{Analyzer: &llvmport.Analyzer{}}
	plain := noCache.OracleFacts(ctx, ir.MustParse(src))

	cached := &Comparator{Analyzer: &llvmport.Analyzer{}, Cache: rescache.New()}
	miss := cached.OracleFacts(ctx, ir.MustParse(src))
	hit := cached.OracleFacts(ctx, ir.MustParse(src))

	if len(plain) != 7+2 {
		t.Fatalf("%d facts, want 9 (7 scalar + 2 demanded)", len(plain))
	}
	if !reflect.DeepEqual(plain, miss) {
		t.Errorf("no-cache vs cache-miss facts differ:\n%v\nvs\n%v", plain, miss)
	}
	if !reflect.DeepEqual(miss, hit) {
		t.Errorf("cache-miss vs cache-hit facts differ:\n%v\nvs\n%v", miss, hit)
	}
	// An alpha-variant (renamed variables) must get facts under its own
	// names, served from the same cache lines.
	variant := cached.OracleFacts(ctx, ir.MustParse(
		"%p:i8 = var\n%q:i8 = var\n%0:i8 = and 15:i8, %p\n%1:i8 = or %0, %q\ninfer %1"))
	if len(variant) != len(plain) {
		t.Fatalf("variant has %d facts, want %d", len(variant), len(plain))
	}
	for i := range plain {
		if i < 7 && variant[i] != plain[i] {
			t.Errorf("scalar fact %d differs for alpha-variant: %v vs %v", i, variant[i], plain[i])
		}
	}
	if variant[7].Analysis != "demanded bits (p)" || variant[8].Analysis != "demanded bits (q)" {
		t.Errorf("variant demanded labels = %q, %q", variant[7].Analysis, variant[8].Analysis)
	}
	if variant[7].Fact != plain[7].Fact || variant[8].Fact != plain[8].Fact {
		t.Errorf("variant demanded masks differ: %v/%v vs %v/%v",
			variant[7].Fact, variant[8].Fact, plain[7].Fact, plain[8].Fact)
	}
}
