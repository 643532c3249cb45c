package main

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"dfcheck/internal/canon"
	"dfcheck/internal/harvest"
)

func corpusText(t *testing.T, c []harvest.Expr) string {
	t.Helper()
	var buf bytes.Buffer
	if err := harvest.WriteCorpus(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func sortedKeys(c []harvest.Expr) []string {
	var keys []string
	for _, e := range c {
		keys = append(keys, canon.Canonicalize(e.F).Key)
	}
	sort.Strings(keys)
	return keys
}

func sortedNames(c []harvest.Expr) []string {
	var names []string
	for _, e := range c {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

func TestCorporaFollowTheSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) []harvest.Expr{"tail": tailCorpus, "dup": dupCorpus} {
		a, b, c := gen(1), gen(1), gen(2)
		if corpusText(t, a) != corpusText(t, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if corpusText(t, a) == corpusText(t, c) {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
		// The seed changes spelling and order, never which expressions
		// appear or how often.
		if na, nc := sortedNames(a), sortedNames(c); !slices.Equal(na, nc) {
			t.Errorf("%s: seeds changed the set of entries", name)
		}
	}
	// Renaming leaves the tail's canonical forms untouched.
	if !slices.Equal(sortedKeys(tailCorpus(1)), sortedKeys(tailCorpus(2))) {
		t.Error("tail: seeds changed the canonical expressions")
	}
}

func TestTailCorpusShape(t *testing.T) {
	c := tailCorpus(2020)
	if len(c) != 164 {
		t.Errorf("%d entries, want 164", len(c))
	}
	if n := len(canonKeys(c)); n != 160 {
		t.Errorf("%d canonical keys, want 160", n)
	}
}

func TestFactsBatches(t *testing.T) {
	warm := warmCorpus()
	used := canonKeys(warm)
	warmKeys := canonKeys(warm)
	batches := factsBatches(1, 0, 20, warm, used)
	seen := map[string]bool{}
	for _, b := range batches {
		if len(b.exprs) != batchSize || len(b.warmOf) != batchSize {
			t.Fatalf("batch of %d/%d, want %d", len(b.exprs), len(b.warmOf), batchSize)
		}
		misses := 0
		for i, src := range b.exprs {
			f, err := harvest.ReadCorpus(bytes.NewBufferString("expr x 1\n" + src + "end\n"))
			if err != nil {
				t.Fatal(err)
			}
			key := canon.Canonicalize(f[0].F).Key
			if b.warmOf[i] >= 0 {
				if key != canon.Canonicalize(warm[b.warmOf[i]].F).Key {
					t.Errorf("variant of warm %d canonicalizes elsewhere", b.warmOf[i])
				}
				continue
			}
			misses++
			if warmKeys[key] || seen[key] {
				t.Errorf("miss %q was seen before", src)
			}
			seen[key] = true
		}
		if misses != batchMisses {
			t.Errorf("%d misses in a batch, want %d", misses, batchMisses)
		}
	}
	again := factsBatches(1, 0, 20, warm, canonKeys(warm))
	for i := range batches {
		for j := range batches[i].exprs {
			if batches[i].exprs[j] != again[i].exprs[j] {
				t.Fatal("the same seed gave different batches")
			}
		}
	}
}
