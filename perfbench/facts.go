package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dfcheck/internal/factsvc"
)

// passBatches is the number of request batches in one facts-warm pass.
// A run makes batchesPerSecond batches per second of --seconds, and at
// least minRequests in all, so the work is fixed by the run length instead of
// by how fast the host happens to be: the server's cache, and so its
// memory, grows with every pass's misses.
const passBatches = 125

// batchesPerSecond sizes a run: 200 batches of 32 take about a second on
// a 2-CPU host.
const batchesPerSecond = 200

// minRequests makes p99 meaningful: 10 samples lie beyond it.
const minRequests = 1000

// setupSpawns is how many times facts-warm starts the server to time its
// set-up; the median is reported and the last server is measured.
const setupSpawns = 3

// exprAnswer and queryResponse mirror the POST /v1/facts response.
type exprAnswer struct {
	Expr      string         `json:"expr"`
	Facts     []factsvc.Fact `json:"facts"`
	Collapsed bool           `json:"collapsed"`
	Error     string         `json:"error"`
}

type queryResponse struct {
	Results  []exprAnswer `json:"results"`
	Rejected int          `json:"rejected"`
}

// postBatch sends one batch and decodes the answer. A 429 still carries
// per-expression answers (the refused ones have an error set).
func postBatch(client *http.Client, base string, b factsBatch) (queryResponse, error) {
	var res queryResponse
	body, err := json.Marshal(map[string][]string{"exprs": b.exprs})
	if err != nil {
		return res, err
	}
	resp, err := client.Post(base+"/v1/facts", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, fmt.Errorf("POST /v1/facts: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, fmt.Errorf("POST /v1/facts: read body: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return res, fmt.Errorf("POST /v1/facts: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("POST /v1/facts: decode: %w", err)
	}
	return res, nil
}

// answerCheck validates fact-service answers across a run: identical
// request text always gets an identical answer, and alpha-variants of one
// warm expression agree on the seven facts that do not name variables.
// It keeps 64-bit hashes, not texts, so the client stays small next to
// the server it measures.
type answerCheck struct {
	byText                       map[uint64]uint64
	byWarm                       map[int]uint64
	attempted, failed            int64
	answers, collapsed, rejected int
	problems                     []string
}

func newAnswerCheck() *answerCheck {
	return &answerCheck{byText: map[uint64]uint64{}, byWarm: map[int]uint64{}}
}

// nonDemandedFacts is the number of facts that do not depend on variable
// names: every Table 1 analysis but demanded bits.
const nonDemandedFacts = 7

func (c *answerCheck) batch(b factsBatch, res queryResponse) {
	c.attempted += int64(len(b.exprs))
	c.rejected += res.Rejected
	if len(res.Results) != len(b.exprs) {
		c.failed += int64(len(b.exprs))
		c.problem(fmt.Sprintf("%d answers for %d expressions", len(res.Results), len(b.exprs)))
		return
	}
	for i, a := range res.Results {
		if a.Error != "" || len(a.Facts) < nonDemandedFacts || a.Expr != b.exprs[i] {
			c.failed++
			continue
		}
		c.answers++
		if a.Collapsed {
			c.collapsed++
		}
		text, all := hash(a.Expr), hash(renderFacts(a.Facts))
		if prev, ok := c.byText[text]; !ok {
			c.byText[text] = all
		} else if prev != all {
			c.problem(fmt.Sprintf("same text, different answers:\n%s\n%s", a.Expr, renderFacts(a.Facts)))
		}
		if j := b.warmOf[i]; j >= 0 {
			facts := hash(renderFacts(a.Facts[:nonDemandedFacts]))
			if prev, ok := c.byWarm[j]; !ok {
				c.byWarm[j] = facts
			} else if prev != facts {
				c.problem(fmt.Sprintf("alpha-variants of warm expression %d disagree:\n%s", j, renderFacts(a.Facts[:nonDemandedFacts])))
			}
		}
	}
}

func hash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// problem records a failed check, keeping the report short.
func (c *answerCheck) problem(p string) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, p)
	}
}

func renderFacts(fs []factsvc.Fact) string {
	var sb strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&sb, "%s=%s; ", f.Analysis, f.Fact)
	}
	return sb.String()
}

// server is one running precision-table -factsvc process.
type server struct {
	cmd            *exec.Cmd
	base           string
	stdout, stderr bytes.Buffer
	done           chan struct{}
	waitErr        error
}

// startServer spawns precision-table serving the fact API over the warm
// corpus and waits until /readyz answers 200, returning the time that
// took.
func startServer(bin string, args []string) (*server, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-factsvc", "-http", addr)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.stdout, &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before ready: %v: %s", s.waitErr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			s.stop()
			return nil, 0, errors.New("server not ready after 120s")
		}
	}
}

// stop interrupts the server (it drains and exits 0) and waits for it,
// killing it if it does not exit in time.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("server ignored SIGINT for 30s")
	}
	return s.waitErr
}

// maxRSSMB is the server's peak resident set, once it has exited.
func (s *server) maxRSSMB() float64 {
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// runFacts is the facts-warm workload: set up the server (timed over
// several spawns), then drive it with one closed-loop client in passes
// of passBatches batches.
func runFacts(o options, nproc int, solverArgs []string) (*outcome, error) {
	warm := warmCorpus()
	path := filepath.Join(o.dir, "warm.corpus")
	if err := writeCorpus(path, warm); err != nil {
		return nil, err
	}
	args := append([]string{"-corpus", path, "-json", "-j", strconv.Itoa(nproc)}, solverArgs...)
	var srv *server
	var setups []float64
	for i := 0; i < setupSpawns; i++ {
		s, secs, err := startServer(o.bin, args)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < setupSpawns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up server: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	out := &outcome{correct: true}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	chk := newAnswerCheck()
	used := canonKeys(warm)
	var walls, cpus, lats []float64
	passes := max(minRequests, int(math.Round(o.seconds*batchesPerSecond))) / passBatches
	for pass := 0; pass < passes; pass++ {
		batches := factsBatches(o.seed, pass, passBatches, warm, used)
		cpu0, err := processCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for _, b := range batches {
			t := time.Now()
			res, err := postBatch(client, srv.base, b)
			lats = append(lats, time.Since(t).Seconds()*1000)
			if err != nil {
				return nil, err
			}
			chk.batch(b, res)
		}
		wall := time.Since(start).Seconds()
		cpu1, err := processCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu1-cpu0)
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("server exit: %w: %s", err, srv.stderr.String())
	}
	rep, err := parseReport(bytes.TrimSpace(srv.stdout.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("warm table: %w", err)
	}
	for _, p := range checkReport(rep, nil, warm) {
		out.fail("warm table: " + p)
	}
	for _, p := range chk.problems {
		out.fail(p)
	}
	out.attempted, out.failed = chk.attempted, chk.failed
	wall := median(walls)
	out.add("wall_s", wall, "s")
	out.add("cpu_s", median(cpus), "s")
	out.add("max_rss_mb", srv.maxRSSMB(), "MB")
	out.add("setup_s", median(setups), "s")
	out.add("exprs_per_s", float64(passBatches*batchSize)/wall, "1/s")
	out.add("failed_share", float64(chk.failed)/float64(chk.attempted), "share")
	out.note("pass wall_s: %s", fmtList(walls))
	out.add("req_p50_ms", median(lats), "ms")
	p99, err := percentile(lats, 0.99)
	if err != nil {
		return nil, err
	}
	out.add("req_p99_ms", p99, "ms")
	out.add("req_samples", float64(len(lats)), "count")
	return out, nil
}
