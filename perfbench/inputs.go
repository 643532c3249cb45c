package main

import (
	"fmt"
	"math/rand"
	"os"

	"dfcheck/internal/canon"
	"dfcheck/internal/harvest"
)

// The workloads' inputs. Each is a deterministic function of the workload
// seed; the program under test only ever sees the files written here.

// tailCorpus is the ROADMAP's fixed Table 1 corpus (what
// "precision-table -n 150 -seed 2020" generates: 150 expressions at
// i4/i8/i13/i16 plus the paper's fragments, 164 entries) with every input
// variable renamed under a stem drawn from the workload seed. Renaming
// keeps each expression's structure, so the solver work and the Table 1
// rows are the same for every seed; only the bytes handed to the program
// change.
func tailCorpus(seed int64) []harvest.Expr {
	corpus := harvest.Generate(harvest.Config{
		Seed:     2020,
		NumExprs: 150,
		MaxInsts: 8,
		Widths: []harvest.WidthWeight{
			{Width: 4, Weight: 10}, {Width: 8, Weight: 45},
			{Width: 13, Weight: 15}, {Width: 16, Weight: 30},
		},
		MaxCastWidth: 16,
	})
	for _, fr := range harvest.PaperFragments {
		corpus = append(corpus, harvest.Expr{Name: "paper-" + fr.Name, F: fr.TestF(), Freq: 1})
	}
	stem := fmt.Sprintf("k%xx", uint32(subSeed(seed, 1)))
	for _, e := range corpus {
		for _, v := range e.F.Vars {
			v.Name = stem + v.Name
		}
	}
	return corpus
}

// dupCorpus is a duplication-shaped corpus: 100 unique i4/i8 expressions
// (a fixed harvest, seed 45) each appearing min(Freq, 10) times as
// shuffled alpha-variants (renamed variables, swapped commutative
// operands) drawn from the workload seed, in a seed-shuffled order. The
// unique set and the copy counts are fixed, so the amount of distinct
// work is the same for every seed.
func dupCorpus(seed int64) []harvest.Expr {
	base := harvest.Generate(harvest.Config{
		Seed:         45,
		NumExprs:     100,
		MaxInsts:     8,
		Widths:       []harvest.WidthWeight{{Width: 4, Weight: 10}, {Width: 8, Weight: 45}},
		MaxCastWidth: 8,
	})
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	var out []harvest.Expr
	for _, e := range base {
		for c := 0; c < min(e.Freq, 10); c++ {
			out = append(out, harvest.Expr{
				Name: fmt.Sprintf("%s-v%d", e.Name, c),
				F:    harvest.ShuffledCopy(e.F, rng),
				Freq: 1,
			})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmCorpus is the fact service's warm table: 64 unique i4/i8
// expressions from a fixed harvest. The server solves it before it
// reports ready; request batches then query alpha-variants of it.
func warmCorpus() []harvest.Expr {
	return harvest.Generate(harvest.Config{
		Seed:         7,
		NumExprs:     64,
		MaxInsts:     8,
		Widths:       []harvest.WidthWeight{{Width: 4, Weight: 10}, {Width: 8, Weight: 45}},
		MaxCastWidth: 8,
	})
}

// Batch composition for facts-warm: of batchSize expressions, batchMisses
// are never-seen i4 expressions (cache misses that solve and store),
// batchRepeats repeat text already in the batch, and the rest are fresh
// alpha-variants of warm expressions (canonical cache hits).
const (
	batchSize    = 32
	batchMisses  = 2
	batchRepeats = 4
)

// factsBatch is one POST /v1/facts body. warmOf[i] is the warm corpus
// index expression i is a variant of, or -1 for a never-seen expression.
type factsBatch struct {
	exprs  []string
	warmOf []int
}

// factsBatches builds the n request batches of one pass. used holds the
// canonical keys every earlier batch (and the warm table) already put in
// the server's cache; it is extended with this pass's misses, so a miss
// is never seen twice in a run.
func factsBatches(seed int64, pass, n int, warm []harvest.Expr, used map[string]bool) []factsBatch {
	misses := neverSeen(subSeed(seed, 3, int64(pass)), n*batchMisses, used)
	rng := rand.New(rand.NewSource(subSeed(seed, 4, int64(pass))))
	batches := make([]factsBatch, n)
	for b := range batches {
		exprs := make([]string, 0, batchSize)
		warmOf := make([]int, 0, batchSize)
		variants := batchSize - batchMisses - batchRepeats
		for i := 0; i < variants; i++ {
			j := rng.Intn(len(warm))
			exprs = append(exprs, harvest.ShuffledCopy(warm[j].F, rng).String())
			warmOf = append(warmOf, j)
		}
		for i := 0; i < batchRepeats; i++ {
			k := rng.Intn(variants)
			exprs = append(exprs, exprs[k])
			warmOf = append(warmOf, warmOf[k])
		}
		for i := 0; i < batchMisses; i++ {
			exprs = append(exprs, misses[b*batchMisses+i])
			warmOf = append(warmOf, -1)
		}
		rng.Shuffle(len(exprs), func(i, j int) {
			exprs[i], exprs[j] = exprs[j], exprs[i]
			warmOf[i], warmOf[j] = warmOf[j], warmOf[i]
		})
		batches[b] = factsBatch{exprs: exprs, warmOf: warmOf}
	}
	return batches
}

// neverSeen generates n i4 expressions whose canonical keys are not in
// used, adding their keys to it.
func neverSeen(seed int64, n int, used map[string]bool) []string {
	out := make([]string, 0, n)
	for round := int64(0); len(out) < n; round++ {
		gen := harvest.Generate(harvest.Config{
			Seed:         subSeed(seed, round),
			NumExprs:     n,
			MaxInsts:     8,
			Widths:       []harvest.WidthWeight{{Width: 4, Weight: 1}},
			MaxCastWidth: 8,
		})
		for _, e := range gen {
			key := canon.Canonicalize(e.F).Key
			if used[key] || len(out) == n {
				continue
			}
			used[key] = true
			out = append(out, e.F.String())
		}
	}
	return out
}

// canonKeys returns the set of canonical keys of a corpus.
func canonKeys(corpus []harvest.Expr) map[string]bool {
	keys := make(map[string]bool, len(corpus))
	for _, e := range corpus {
		keys[canon.Canonicalize(e.F).Key] = true
	}
	return keys
}

// writeCorpus writes corpus to path in precision-table's -corpus format.
func writeCorpus(path string, corpus []harvest.Expr) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := harvest.WriteCorpus(f, corpus); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// subSeed derives an independent stream seed from the workload seed and
// a purpose tag (splitmix64 finalizer over the mixed inputs).
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = x*0x9e3779b97f4a7c15 + uint64(p) + 1
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}
