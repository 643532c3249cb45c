package main

import (
	"testing"

	"dfcheck/internal/llvmport"
)

func TestReenactTableTracedMatchesUntraced(t *testing.T) {
	corpus := dupCorpus(1)[:24]
	texts := make([]string, len(corpus))
	for i, e := range corpus {
		texts[i] = e.F.String()
	}
	for _, grouped := range []bool{false, true} {
		off, err := (&reenactor{workers: 2, an: &llvmport.Analyzer{}}).table(corpus, texts, grouped, -1)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		root := rec.begin("run", -1, "test")
		on, err := (&reenactor{rec: rec, workers: 2, an: &llvmport.Analyzer{}}).table(corpus, texts, grouped, root)
		if err != nil {
			t.Fatal(err)
		}
		rec.end(root)
		if n := statsMismatches(on.runs, off.runs); n > 0 {
			t.Errorf("grouped=%t: traced engine stats differ on %d expressions", grouped, n)
		}
		for _, s := range rec.spans {
			if s.end < s.start {
				t.Fatalf("grouped=%t: span %s left open", grouped, s.name)
			}
		}
		sp := rec.summarize()
		for _, name := range []string{"ir.parse", "canon.canonicalize", "llvmport.analyze", "absint.lint", "oracle.range", "oracle.demanded"} {
			if sp.total[name] <= 0 {
				t.Errorf("grouped=%t: no time recorded for %s", grouped, name)
			}
		}
		if on.entries != len(corpus) || on.unique > len(corpus) || on.lintChecks == 0 {
			t.Errorf("grouped=%t: entries %d, unique %d, lint checks %d", grouped, on.entries, on.unique, on.lintChecks)
		}
	}
}
