// Command perfbench is the repository benchmark: it runs one workload
// through the shipped precision-table binary, checks the outputs, and
// prints every end-to-end metric with its unit, ending with one JSON
// result line. With -trace 1 it instead re-enacts the workload by calling
// each layer's public functions and prints the per-layer metrics. See
// README.md for the workloads and what each metric should move.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload table1-tail --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin, dir string
}

var workloads = []string{"table1-tail", "table1-dup", "facts-warm"}

// endToEnd and perLayer are the metrics the result line carries with
// -trace 0 and -trace 1; they match BENCHMARK.json. Everything else a run
// measures is printed above the result line only.
var endToEnd = []string{"wall_s", "cpu_s", "max_rss_mb", "setup_s", "exprs_per_s"}

var perLayer = []string{
	"compare.entries", "compare.canon_unique_share",
	"ir.parse_s", "canon.canonicalize_s",
	"llvmport.analyze_s", "absint.lint_s", "absint.lint_checks",
	"solver.enum_exprs", "solver.sat_exprs", "solver.queries", "solver.enum_queries",
	"solver.pruned_queries", "solver.exhausted_queries", "solver.enum_busy_s", "solver.sat_busy_s",
	"sat.conflicts", "sat.propagations", "sat.decisions", "sat.learned",
	"bitblast.blast_s", "bitblast.gates_built", "bitblast.gates_deduped", "bitblast.clauses",
	"oracle.known_bits_s", "oracle.known_bits_self_s", "oracle.known_bits_queries", "oracle.known_bits_conflicts", "oracle.known_bits_exhausted",
	"oracle.sign_bits_s", "oracle.sign_bits_self_s", "oracle.sign_bits_queries", "oracle.sign_bits_conflicts", "oracle.sign_bits_exhausted",
	"oracle.predicates_s", "oracle.predicates_self_s", "oracle.predicates_queries", "oracle.predicates_conflicts", "oracle.predicates_exhausted",
	"oracle.range_s", "oracle.range_self_s", "oracle.range_queries", "oracle.range_conflicts", "oracle.range_exhausted",
	"oracle.demanded_s", "oracle.demanded_self_s", "oracle.demanded_queries", "oracle.demanded_conflicts", "oracle.demanded_exhausted",
	"oracle.expr_max_s", "oracle.expr_max_share",
	"factsvc.rejected", "factsvc.collapsed_share", "rescache.hit_share", "rescache.entries",
	"host.calib_s", "host.steal_share",
	"trace.unaccounted_share", "trace.overhead_share",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured and whether its outputs checked out.
type outcome struct {
	correct           bool
	problems          []string
	attempted, failed int64
	names             []string
	metrics           map[string]metric
	notes             []string
}

// note records a line of context printed above the metrics.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

func (o *outcome) add(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, dup := o.metrics[name]; !dup {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) fail(problem string) {
	o.correct = false
	o.problems = append(o.problems, problem)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 2020, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure whole passes until this many seconds are spent")
	flag.IntVar(&trace, "trace", 0, "1 re-enacts the workload layer by layer and reports per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "precision-table binary built from this checkout")
	flag.StringVar(&o.dir, "dir", "", "directory for generated inputs")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.bin == "" || o.dir == "" {
		return fmt.Errorf("-bin and -dir are required (run.sh sets them)")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	// Single-search SAT: the portfolio races clones, which makes the
	// amount of work differ from run to run. Pass -no-portfolio while the
	// binary still has it; once the portfolio is gone the flag is too.
	noPortfolio, err := probeFlag(o.bin, "no-portfolio")
	if err != nil {
		return err
	}
	var solverArgs []string
	portfolio := "absent"
	if noPortfolio {
		solverArgs, portfolio = []string{"-no-portfolio"}, "off"
	}
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g mode=%s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Printf("# host nproc=%d cpu=%q go=%s portfolio=%s\n", nproc, cpuModel(), runtime.Version(), portfolio)

	calib := calibrate()
	cpu0, cpuErr := readCPUTimes()
	var out *outcome
	switch {
	case o.trace:
		out, err = runTraced(o, nproc)
	case o.workload == "facts-warm":
		out, err = runFacts(o, nproc, solverArgs)
	default:
		out, err = runTable1(o, nproc, solverArgs)
	}
	if err != nil {
		return err
	}
	cpu1, err := readCPUTimes()
	if cpuErr != nil || err != nil {
		return fmt.Errorf("read /proc/stat: %v %v", cpuErr, err)
	}
	// Host drift evidence, never folded into the end-to-end metrics.
	out.add("host.calib_s", (calib+calibrate())/2, "s")
	out.add("host.steal_share", stealShare(cpu0, cpu1), "share")

	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, name := range out.names {
		m := out.metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := out.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
