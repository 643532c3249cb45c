package compare

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dfcheck/internal/absint"
	"dfcheck/internal/harvest"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
)

func zeroAddCorpus() []harvest.Expr {
	// Bug 1 proves "0 + 0" non-zero while known bits and the range prove
	// it zero: a cross-domain contradiction on a well-defined expression.
	return []harvest.Expr{
		{Name: "zero-add", F: ir.MustParse("%0:i8 = add 0:i8, 0:i8\ninfer %0"), Freq: 1},
	}
}

// TestInconsistentFindingThreaded: a bugged analyzer under the
// consistency lint must surface an Inconsistent finding in the report,
// flagged with the consistency kind and counted separately from the
// soundness findings in both the text table and the JSON rendering.
func TestInconsistentFindingThreaded(t *testing.T) {
	reg := metrics.NewRegistry()
	c := &Comparator{
		Analyzer:    &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true}},
		Consistency: true,
		Metrics:     reg,
	}
	rep := c.Run(zeroAddCorpus())
	if rep.ConsistencyChecks == 0 {
		t.Fatalf("no consistency checks recorded")
	}
	var incons []Finding
	for _, f := range rep.Findings {
		if f.Kind == FindingInconsistent {
			incons = append(incons, f)
		}
	}
	if len(incons) == 0 {
		t.Fatalf("no inconsistent finding; findings: %v", rep.Findings)
	}
	f := incons[0]
	if f.Result.Analysis != ConsistencyAnalysis || f.Result.Outcome != Inconsistent {
		t.Errorf("finding misclassified: analysis %s, outcome %v", f.Result.Analysis, f.Result.Outcome)
	}
	if f.ExprName != "zero-add" || f.Source == "" || f.Result.LLVMFact == "" {
		t.Errorf("finding not self-contained: %+v", f)
	}
	if s := f.String(); !strings.Contains(s, "consistency") {
		t.Errorf("finding text does not name the lint: %q", s)
	}

	table := rep.Table()
	if !strings.Contains(table, "INCONSISTENT FINDINGS (1)") {
		t.Errorf("table missing inconsistent section:\n%s", table)
	}
	if !strings.Contains(table, "consistency checks:") {
		t.Errorf("table missing consistency check count:\n%s", table)
	}

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		ConsistencyChecks int `json:"consistency_checks"`
		Findings          []struct {
			Kind string `json:"kind"`
		} `json:"soundness_findings"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.ConsistencyChecks != rep.ConsistencyChecks {
		t.Errorf("JSON consistency_checks = %d, want %d", parsed.ConsistencyChecks, rep.ConsistencyChecks)
	}
	found := false
	for _, jf := range parsed.Findings {
		if jf.Kind == string(FindingInconsistent) {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON findings missing consistency kind:\n%s", data)
	}

	if got := reg.Counter("consistency_checks").Value(); got == 0 {
		t.Errorf("consistency_checks metric not bumped")
	}
	if got := reg.Counter("inconsistent_findings").Value(); got == 0 {
		t.Errorf("inconsistent_findings metric not bumped")
	}
}

// TestConsistencyCleanAnalyzerSilent: the clean analyzer must run the
// lint (checks counted) without producing a single inconsistent finding
// over a generated corpus.
func TestConsistencyCleanAnalyzerSilent(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:     3,
		NumExprs: 40,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 1}},
	})
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Consistency: true}
	rep := c.Run(corpus)
	if rep.ConsistencyChecks == 0 {
		t.Fatalf("no consistency checks recorded")
	}
	for _, f := range rep.Findings {
		if f.Kind == FindingInconsistent {
			t.Fatalf("clean analyzer flagged inconsistent: %s", f)
		}
	}
}

// TestConsistencySuppressedOnPoisonOnlyExpr: "add nuw 1, 1" at i1 has no
// well-defined evaluation, so the analyzer's (genuinely contradictory,
// but vacuously sound) facts must not become a finding.
func TestConsistencySuppressedOnPoisonOnlyExpr(t *testing.T) {
	corpus := []harvest.Expr{
		{Name: "poison-only", F: ir.MustParse("%0:i1 = addnuw 1:i1, 1:i1\ninfer %0"), Freq: 1},
	}
	c := &Comparator{Analyzer: &llvmport.Analyzer{}, Consistency: true}
	rep := c.Run(corpus)
	for _, f := range rep.Findings {
		if f.Kind == FindingInconsistent {
			t.Fatalf("vacuous contradiction reported as finding: %s", f)
		}
	}
	if rep.ConsistencyChecks == 0 {
		t.Fatalf("lint did not run at all")
	}
}

// TestConsistencyOffByDefault: without the flag the lint must not run —
// no checks, no consistency results.
func TestConsistencyOffByDefault(t *testing.T) {
	c := &Comparator{Analyzer: &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true}}}
	rep := c.Run(zeroAddCorpus())
	if rep.ConsistencyChecks != 0 {
		t.Errorf("lint ran with Consistency unset: %d checks", rep.ConsistencyChecks)
	}
	for _, f := range rep.Findings {
		if f.Kind == FindingInconsistent {
			t.Errorf("inconsistent finding with Consistency unset: %s", f)
		}
	}
}

// TestConsistencyCachedParity: a run with or without a persistent cache
// must report the same consistency findings and check counts as
// comparing each entry on its own, including for a second member of a
// canonical group — the corpus repeats the trigger under two names.
func TestConsistencyCachedParity(t *testing.T) {
	corpus := append(zeroAddCorpus(), harvest.Expr{
		Name: "zero-add-again", F: ir.MustParse("%0:i8 = add 0:i8, 0:i8\ninfer %0"), Freq: 1,
	})
	mk := func() *Comparator {
		return &Comparator{
			Analyzer:    &llvmport.Analyzer{Bugs: llvmport.BugConfig{NonZeroAdd: true}},
			Consistency: true,
		}
	}
	ref := referenceReport(mk(), corpus)
	var names []string
	for _, f := range ref.Findings {
		if f.Kind == FindingInconsistent {
			names = append(names, f.ExprName)
		}
	}
	if len(names) != 2 {
		t.Fatalf("reference inconsistent findings on %v, want both triggers", names)
	}
	for _, cached := range []bool{false, true} {
		c := mk()
		if cached {
			c.Cache = rescache.New()
		}
		rep := c.Run(corpus)
		if rep.ConsistencyChecks != ref.ConsistencyChecks {
			t.Errorf("cached=%t: check counts diverge: run %d, reference %d", cached, rep.ConsistencyChecks, ref.ConsistencyChecks)
		}
		requireSameReport(t, ref, rep, fmt.Sprintf("consistency cached=%t", cached))
	}
}

// TestConsistencyDomainsWidenLint: listing transfer domains on the
// comparator adds the tnum/stride reduced-product checks on top of the
// classic four-domain lint — strictly more checks over the same corpus —
// while a clean analyzer stays silent either way. Nil Domains must keep
// the classic check count exactly, so the default path is unchanged.
func TestConsistencyDomainsWidenLint(t *testing.T) {
	corpus := harvest.Generate(harvest.Config{
		Seed:     3,
		NumExprs: 25,
		MaxInsts: 5,
		Widths:   []harvest.WidthWeight{{Width: 4, Weight: 1}, {Width: 8, Weight: 1}},
	})
	run := func(doms []absint.Domain) *Report {
		c := &Comparator{Analyzer: &llvmport.Analyzer{}, Consistency: true, Domains: doms}
		return c.Run(corpus)
	}
	classic, classicAgain := run(nil), run(nil)
	if classic.ConsistencyChecks != classicAgain.ConsistencyChecks {
		t.Fatalf("classic lint not deterministic: %d vs %d checks",
			classic.ConsistencyChecks, classicAgain.ConsistencyChecks)
	}
	extended := run(absint.AllInputDomains())
	if extended.ConsistencyChecks <= classic.ConsistencyChecks {
		t.Fatalf("domain lint added no checks: classic %d, extended %d",
			classic.ConsistencyChecks, extended.ConsistencyChecks)
	}
	for _, f := range extended.Findings {
		if f.Kind == FindingInconsistent {
			t.Fatalf("clean analyzer flagged inconsistent under domain lint: %s", f)
		}
	}
}

// TestDomainNames: the fingerprint rendering of the domain list — empty
// for the classic lint, comma-joined Name() strings otherwise.
func TestDomainNames(t *testing.T) {
	if got := (&Comparator{}).DomainNames(); got != "" {
		t.Errorf("nil domains rendered %q", got)
	}
	got := (&Comparator{Domains: absint.AllInputDomains()}).DomainNames()
	want := "known bits,sign bits,integer range,tnum,stride"
	if got != want {
		t.Errorf("DomainNames() = %q, want %q", got, want)
	}
}
