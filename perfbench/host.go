package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// calibrate times a fixed CPU kernel that shares no code with the program
// under test: SHA-256 over 128 MiB. When its time drifts between runs, the
// host got slower or faster, not the program.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	start := time.Now()
	sum := sha256.Sum256(buf)
	for i := 0; i < 127; i++ {
		copy(buf, sum[:])
		sum = sha256.Sum256(buf)
	}
	return time.Since(start).Seconds()
}

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTimes struct {
	steal, total uint64
}

// readCPUTimes reads the host-wide CPU counters. Steal is time the
// hypervisor ran someone else on our virtual CPUs.
func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of host CPU time stolen between two readings;
// 0 when the counters are unavailable or did not move.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU returns the CPU time a live process has used so far: the sum
// of /proc/<pid>/task/*/schedstat (nanoseconds on a CPU) over its threads.
func processCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", pid, err)
	}
	var ns uint64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		v, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// hasFlag reports whether a Go flag-package usage text lists -name.
func hasFlag(usage, name string) bool {
	re := regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(name) + `(\s|$)`)
	return re.MatchString(usage)
}

// probeFlag runs "bin -h" and reports whether its usage lists -name. The
// flag package exits 0 after printing usage for -h.
func probeFlag(bin, name string) (bool, error) {
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		return false, fmt.Errorf("%s -h: %w", bin, err)
	}
	return hasFlag(string(out), name), nil
}
