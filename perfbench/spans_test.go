package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeSelfTime(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{name: "run", parent: -1, start: 0, end: 100 * ms},
		{name: "expr", parent: 0, start: 0, end: 60 * ms},
		{name: "oracle.range", parent: 1, start: 10 * ms, end: 50 * ms},
		{name: "solver.sat", parent: 2, start: 10 * ms, end: 30 * ms},
		{name: "solver.sat", parent: 2, start: 20 * ms, end: 40 * ms}, // overlaps the first
		{name: "expr", parent: 0, start: 50 * ms, end: 90 * ms},       // a second worker
		{name: "ir.parse", parent: 5, start: 50 * ms, end: 90 * ms},
	}}
	sp := r.summarize()
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(sp.self["oracle.range"], 0.010) {
		t.Errorf("oracle.range self = %g, want 0.010", sp.self["oracle.range"])
	}
	if !near(sp.total["solver.sat"], 0.040) {
		t.Errorf("solver.sat total = %g, want 0.040", sp.total["solver.sat"])
	}
	if !near(sp.self["run"], 0.010) {
		t.Errorf("run self = %g, want 0.010", sp.self["run"])
	}
	// Directly under containers: layers cover 40+40 ms, containers leave
	// 10 (run) + 20 (first expr) + 0 (second expr) ms uncovered.
	if want := 30.0 / 110; !near(sp.unaccounted, want) {
		t.Errorf("unaccounted = %g, want %g", sp.unaccounted, want)
	}
}

func TestRecorderOff(t *testing.T) {
	var r *recorder
	if i := r.begin("x", -1, ""); i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
	r.end(-1)
}
