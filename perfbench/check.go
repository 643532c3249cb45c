package main

import (
	"embed"
	"encoding/json"
	"fmt"

	"dfcheck/internal/harvest"
)

// tableRow is one Table 1 row of precision-table's -json report.
type tableRow struct {
	Analysis  string `json:"analysis"`
	Same      int    `json:"same_precision"`
	OracleMP  int    `json:"oracle_more_precise"`
	LLVMMP    int    `json:"llvm_more_precise"`
	Exhausted int    `json:"resource_exhausted"`
}

func (r tableRow) total() int { return r.Same + r.OracleMP + r.LLVMMP + r.Exhausted }

// tableReport is the part of precision-table's -json report the checks
// read.
type tableReport struct {
	Rows     []tableRow        `json:"rows"`
	Findings []json.RawMessage `json:"soundness_findings"`
}

func parseReport(data []byte) (tableReport, error) {
	var rep tableReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parse -json report: %w", err)
	}
	return rep, nil
}

// exhausted sums the "resource exhaustion" column.
func (rep tableReport) exhausted() int {
	n := 0
	for _, r := range rep.Rows {
		n += r.Exhausted
	}
	return n
}

// sameRows reports whether two reports have identical Table 1 counts.
func sameRows(a, b tableReport) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return false
		}
	}
	return true
}

// checkReport validates one Table 1 report of corpus: no findings, no
// "LLVM is more precise" cell, and every entry counted once per analysis
// (demanded bits once per input variable). Against reference rows (when
// ref is set), exhausted cells may only fall and the other cells may only
// gain what exhaustion lost.
func checkReport(rep tableReport, ref *tableReport, corpus []harvest.Expr) []string {
	var errs []string
	if len(rep.Findings) > 0 {
		errs = append(errs, fmt.Sprintf("%d findings", len(rep.Findings)))
	}
	vars := 0
	for _, e := range corpus {
		vars += len(e.F.Vars)
	}
	var byName map[string]tableRow
	if ref != nil {
		byName = make(map[string]tableRow, len(ref.Rows))
		for _, r := range ref.Rows {
			byName[r.Analysis] = r
		}
	}
	seen := make(map[string]bool, len(rep.Rows))
	for _, r := range rep.Rows {
		seen[r.Analysis] = true
		if r.LLVMMP != 0 {
			errs = append(errs, fmt.Sprintf("%s: %d cells where LLVM is more precise", r.Analysis, r.LLVMMP))
		}
		want := len(corpus)
		if r.Analysis == string(harvest.DemandedBits) {
			want = vars
		}
		if r.total() != want {
			errs = append(errs, fmt.Sprintf("%s: row counts %d comparisons, want %d", r.Analysis, r.total(), want))
		}
		old, ok := byName[r.Analysis]
		switch {
		case ref == nil:
		case !ok:
			errs = append(errs, fmt.Sprintf("%s: no reference row", r.Analysis))
		case r.Exhausted > old.Exhausted:
			errs = append(errs, fmt.Sprintf("%s: %d exhausted cells, reference has %d", r.Analysis, r.Exhausted, old.Exhausted))
		case r.Same < old.Same || r.OracleMP < old.OracleMP:
			errs = append(errs, fmt.Sprintf("%s: same/souper-more-precise %d/%d fell below reference %d/%d",
				r.Analysis, r.Same, r.OracleMP, old.Same, old.OracleMP))
		}
	}
	for _, a := range harvest.AllAnalyses {
		if !seen[string(a)] {
			errs = append(errs, fmt.Sprintf("%s: row missing", a))
		}
	}
	return errs
}

// references holds the Table 1 rows each table1 workload produced when
// the benchmark was defined. The rows do not depend on the workload seed.
//
//go:embed reference/*.json
var references embed.FS

func reference(workload string) (tableReport, error) {
	data, err := references.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return tableReport{}, fmt.Errorf("reference rows for %s: %w", workload, err)
	}
	return parseReport(data)
}
