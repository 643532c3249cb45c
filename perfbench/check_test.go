package main

import "testing"

func tailReference(t *testing.T) tableReport {
	t.Helper()
	ref, err := reference("table1-tail")
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func clone(rep tableReport) tableReport {
	return tableReport{Rows: append([]tableRow(nil), rep.Rows...)}
}

func TestCheckReportAcceptsReference(t *testing.T) {
	ref := tailReference(t)
	if errs := checkReport(clone(ref), &ref, tailCorpus(1)); len(errs) > 0 {
		t.Fatalf("reference rows rejected: %v", errs)
	}
	if got := ref.exhausted(); got != 40 {
		t.Errorf("reference exhausted cells = %d, want 40", got)
	}
}

func TestCheckReportRejectsDoctoredReports(t *testing.T) {
	ref := tailReference(t)
	corpus := tailCorpus(1)
	cases := map[string]func(rep *tableReport){
		"llvm more precise": func(rep *tableReport) {
			rep.Rows[0].Same--
			rep.Rows[0].LLVMMP++
		},
		"row total off": func(rep *tableReport) { rep.Rows[1].OracleMP++ },
		"exhausted rise": func(rep *tableReport) {
			rep.Rows[6].Same--
			rep.Rows[6].Exhausted++
		},
		"cell moved without exhaustion": func(rep *tableReport) {
			rep.Rows[2].Same--
			rep.Rows[2].OracleMP++
		},
		"row missing":  func(rep *tableReport) { rep.Rows = rep.Rows[1:] },
		"has findings": func(rep *tableReport) { rep.Findings = append(rep.Findings, []byte(`{}`)) },
	}
	for name, doctor := range cases {
		rep := clone(ref)
		doctor(&rep)
		if errs := checkReport(rep, &ref, corpus); len(errs) == 0 {
			t.Errorf("%s: doctored report accepted", name)
		}
	}
}

func TestCheckReportAllowsExhaustionToResolve(t *testing.T) {
	ref := tailReference(t)
	rep := clone(ref)
	rep.Rows[6].Exhausted--
	rep.Rows[6].OracleMP++
	if errs := checkReport(rep, &ref, tailCorpus(1)); len(errs) > 0 {
		t.Fatalf("resolved exhausted cell rejected: %v", errs)
	}
}
