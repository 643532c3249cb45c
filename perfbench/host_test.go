package main

import (
	"os"
	"path/filepath"
	"testing"
)

const usageWith = `Usage of precision-table:
  -n int
    	number of generated expressions (default 300)
  -no-portfolio
    	ablation: disable portfolio solving
  -portfolio int
    	clones racing each hard SAT query
`

const usageWithout = `Usage of precision-table:
  -n int
    	number of generated expressions (default 300)
  -no-strash
    	ablation: disable structural hashing
`

func TestHasFlag(t *testing.T) {
	if !hasFlag(usageWith, "no-portfolio") {
		t.Error("-no-portfolio not found in a usage that lists it")
	}
	if hasFlag(usageWithout, "no-portfolio") {
		t.Error("-no-portfolio found in a usage that does not list it")
	}
	if hasFlag(usageWith, "portf") {
		t.Error("a prefix of a flag matched")
	}
}

// fakeBinary writes a script that prints usage to stderr and exits 0, the
// way the flag package answers -h.
func fakeBinary(t *testing.T, usage string) string {
	t.Helper()
	dir := t.TempDir()
	text := filepath.Join(dir, "usage.txt")
	if err := os.WriteFile(text, []byte(usage), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "precision-table")
	if err := os.WriteFile(bin, []byte("#!/bin/sh\ncat "+text+" >&2\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestProbeFlagBothBranches(t *testing.T) {
	for _, tc := range []struct {
		usage string
		want  bool
	}{{usageWith, true}, {usageWithout, false}} {
		got, err := probeFlag(fakeBinary(t, tc.usage), "no-portfolio")
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("probe = %t, want %t", got, tc.want)
		}
	}
	if _, err := probeFlag(filepath.Join(t.TempDir(), "missing"), "no-portfolio"); err == nil {
		t.Error("probing a missing binary succeeded")
	}
}
