package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dfcheck/internal/harvest"
)

// setupReps is how many times a table1 workload generates and writes its
// corpus; the median is its set-up time.
const setupReps = 15

// tablePass is one precision-table run over the corpus.
type tablePass struct {
	wall, cpu, rssMB float64
	report           tableReport
}

// runTablePass runs precision-table over the corpus file the way a user
// regenerates Table 1, with -json for the checks.
func runTablePass(bin string, args []string) (tablePass, error) {
	var p tablePass
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p.wall = time.Since(start).Seconds()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			return p, fmt.Errorf("precision-table: %w: %s", err, stderr.String())
		}
		// Exit 1 means soundness findings; the report check flags them.
	}
	p.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	p.report, err = parseReport(stdout.Bytes())
	return p, err
}

// runTable1 is a table1 workload: generate the corpus (timed as set-up),
// then run precision-table over it in whole passes until the run's
// seconds are spent, at least once, checking every report.
func runTable1(o options, nproc int, solverArgs []string) (*outcome, error) {
	gen := tailCorpus
	if o.workload == "table1-dup" {
		gen = dupCorpus
	}
	path := filepath.Join(o.dir, o.workload+".corpus")
	var corpus []harvest.Expr
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each repetition starts from a clean heap
		start := time.Now()
		corpus = gen(o.seed)
		if err := writeCorpus(path, corpus); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref, err := reference(o.workload)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-corpus", path, "-json", "-j", strconv.Itoa(nproc)}, solverArgs...)
	out := &outcome{correct: true}
	var walls, cpus, rss []float64
	var first tableReport
	for measured := 0.0; len(walls) == 0 || measured < o.seconds; {
		p, err := runTablePass(o.bin, args)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(corpus))
		for _, msg := range checkReport(p.report, &ref, corpus) {
			out.fail(msg)
		}
		if len(walls) == 0 {
			first = p.report
		} else if !sameRows(first, p.report) {
			out.fail("Table 1 rows differ between passes of one run")
		}
		walls, cpus, rss = append(walls, p.wall), append(cpus, p.cpu), append(rss, p.rssMB)
		measured += p.wall
	}
	wall := median(walls)
	out.add("wall_s", wall, "s")
	out.add("cpu_s", median(cpus), "s")
	out.add("max_rss_mb", median(rss), "MB")
	out.add("setup_s", median(setups), "s")
	out.add("exprs_per_s", float64(len(corpus))/wall, "1/s")
	// A pass that cannot run ends the run with an error instead, so no
	// entry is ever counted failed here.
	out.add("failed_share", 0, "share")
	out.add("cells_exhausted", float64(first.exhausted()), "count")
	out.note("pass wall_s: %s", fmtList(walls))
	return out, nil
}
