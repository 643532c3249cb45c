package factsvc

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
	"dfcheck/internal/rescache"
	"dfcheck/internal/trace"
)

// Fact is one rendered dataflow fact: an analysis name (a
// harvest.Analysis value; demanded bits carries a "(var)" suffix per
// input variable) and the fact text in the paper's print format.
type Fact struct {
	Analysis string `json:"analysis"`
	Fact     string `json:"fact"`
}

// SolveFunc computes the dataflow facts for one expression. The service
// calls it on the canonical form, so per-variable facts come back named
// x0, x1, ...; each Ticket maps them back to its submitter's names. The
// comparator provides the production implementation
// (compare.Comparator.OracleFacts), which consults the result cache and
// its own single-flight layer; tests substitute stubs.
type SolveFunc func(ctx context.Context, f *ir.Function) ([]Fact, error)

// ErrSaturated is returned by Submit when the target worker queue is
// full. The HTTP layer maps it to 429 + Retry-After; programmatic
// callers back off and retry.
var ErrSaturated = errors.New("factsvc: solve queue saturated")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("factsvc: service closed")

// Config configures a Service.
type Config struct {
	// Workers is the solver pool size; 0 selects 4.
	Workers int
	// QueueDepth is the per-worker pending-task bound; 0 selects 64.
	// When a worker's queue is full, Submit fails fast with ErrSaturated
	// instead of queueing unbounded work.
	QueueDepth int
	// Solve computes the facts for one expression. Required.
	Solve SolveFunc
	// Cache, when set, feeds the factsvc_shard_occupancy and per-shard
	// rescache gauges through the registry's collector hook. The service
	// never reads or writes entries itself — Solve owns cache policy.
	Cache *rescache.Cache
	// Metrics, when set, gains the factsvc_* instruments: counters and
	// outcome-labeled latency histograms on the solve path, and
	// pull-style per-worker queue-depth/in-flight gauges refreshed on
	// every snapshot or scrape.
	Metrics *metrics.Registry
	// Tracer, when set, records one expr-level span per solved task
	// (subject to TraceSample).
	Tracer *trace.Tracer
	// TraceSample records only one in every N solve spans (0 and 1 mean
	// every solve). Slow solves are exempt: a solve admitted to SlowLog
	// is force-recorded into the trace even when the sampler skipped it.
	TraceSample int
	// SlowLog, when set, retains the slowest solves (canonical hash,
	// opcode, width, duration, solver-stat detail) for /dashboardz and
	// post-mortems.
	SlowLog *metrics.SlowLog
	// RetryAfter is the *base* backoff the HTTP layer advertises on
	// saturation; 0 selects 1s. The advertised value scales with queue
	// fill (see RetryAfterSecs).
	RetryAfter time.Duration
}

// task is one scheduled solve. Duplicate submissions attach to the
// existing task instead of scheduling their own; everyone waits on done
// and shares the result fields.
type task struct {
	key     string // canonical key (canon.Canon.Key)
	hash    uint64 // canonical hash, routes the task to its worker
	f       *ir.Function
	done    chan struct{}
	facts   []Fact
	elapsed time.Duration
	err     error
}

// Service is the batched query pipeline: Submit canonicalizes, collapses
// duplicates of any live (queued or solving) task, and routes new tasks
// by canonical hash to a fixed worker — so two submissions of the same
// expression can never solve concurrently, and a hot expression costs
// one solve no matter how many callers race on it.
type Service struct {
	cfg    Config
	queues []chan *task
	busy   []atomic.Int64 // 1 while worker i is inside Solve
	seq    atomic.Uint64  // solve counter, drives trace sampling
	wg     sync.WaitGroup

	mu     sync.Mutex
	live   map[string]*task
	closed bool

	// Instruments, resolved once at construction (nil registry → nil
	// instruments, checked at use).
	mExprs, mCollapsed, mRejected, mSolved, mErrors *metrics.Counter
	gQueue                                          *metrics.Gauge
	hLatency                                        *metrics.Histogram
	hSolved, hErrored, hCollapsed, hSaturated       *metrics.Histogram
	cSolverQ                                        *metrics.Counter // shared solver_queries, for slow-log deltas
}

// New starts the worker pool. Close releases it.
func New(cfg Config) (*Service, error) {
	if cfg.Solve == nil {
		return nil, errors.New("factsvc: Config.Solve is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Service{
		cfg:    cfg,
		queues: make([]chan *task, cfg.Workers),
		busy:   make([]atomic.Int64, cfg.Workers),
		live:   make(map[string]*task),
	}
	if m := cfg.Metrics; m != nil {
		s.mExprs = m.Counter("factsvc_exprs")
		s.mCollapsed = m.Counter("factsvc_inflight_collapsed")
		s.mRejected = m.Counter("factsvc_rejected")
		s.mSolved = m.Counter("factsvc_solved")
		s.mErrors = m.Counter("factsvc_errors")
		s.gQueue = m.Gauge("factsvc_queue_depth")
		s.hLatency = m.Histogram("factsvc_latency")
		s.hSolved = m.HistogramL("factsvc_solve_latency", metrics.Labels{"outcome": "solved"})
		s.hErrored = m.HistogramL("factsvc_solve_latency", metrics.Labels{"outcome": "error"})
		s.hCollapsed = m.HistogramL("factsvc_solve_latency", metrics.Labels{"outcome": "collapsed"})
		s.hSaturated = m.HistogramL("factsvc_solve_latency", metrics.Labels{"outcome": "saturated"})
		s.cSolverQ = m.Counter("solver_queries")
	}
	for i := range s.queues {
		s.queues[i] = make(chan *task, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(i)
	}
	if m := cfg.Metrics; m != nil {
		// Pull-style gauges, refreshed by the registry on every snapshot
		// or scrape instead of on the solve hot path: per-worker queue
		// depth and in-flight flags, plus the fullest cache stripe (the
		// occupancy scan used to run after every task — 64 shard locks
		// per solve; as a collector it costs one scan per scrape).
		queueDepth := make([]*metrics.Gauge, cfg.Workers)
		inflight := make([]*metrics.Gauge, cfg.Workers)
		for i := range queueDepth {
			w := strconv.Itoa(i)
			queueDepth[i] = m.GaugeL("factsvc_worker_queue_depth", metrics.Labels{"worker": w})
			inflight[i] = m.GaugeL("factsvc_worker_inflight", metrics.Labels{"worker": w})
		}
		gShardOcc := m.Gauge("factsvc_shard_occupancy")
		m.RegisterCollector(func() {
			for i := range s.queues {
				queueDepth[i].Set(int64(len(s.queues[i])))
				inflight[i].Set(s.busy[i].Load())
			}
			if s.cfg.Cache != nil {
				max := 0
				for _, l := range s.cfg.Cache.ShardLens() {
					if l > max {
						max = l
					}
				}
				gShardOcc.Set(int64(max))
			}
		})
	}
	return s, nil
}

// RetryAfter returns the base advisory backoff for saturated
// submissions.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// QueuedTasks returns the number of tasks sitting in worker queues
// (excluding the ones currently being solved).
func (s *Service) QueuedTasks() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// QueueCapacity returns the total queue slots across workers.
func (s *Service) QueueCapacity() int { return len(s.queues) * s.cfg.QueueDepth }

// RetryAfterSecs derives the Retry-After value (whole seconds) a
// saturated service should advertise. The formula is deliberately
// simple and bounded:
//
//	fill = queued / capacity, clamped to [0, 1]
//	secs = ceil(base_seconds × (1 + 3×fill)), clamped to [1, 300]
//
// An almost-empty service (one hot worker queue filled while the rest
// idle) advertises its base backoff; a fully saturated one advertises
// 4× base, so retry pressure decays instead of synchronizing every
// rejected client onto the same instant.
func RetryAfterSecs(base time.Duration, queued, capacity int) int {
	baseSecs := base.Seconds()
	if baseSecs < 1 {
		baseSecs = 1
	}
	fill := 0.0
	if capacity > 0 {
		fill = float64(queued) / float64(capacity)
		if fill > 1 {
			fill = 1
		}
		if fill < 0 {
			fill = 0
		}
	}
	secs := int(baseSecs * (1 + 3*fill))
	if float64(secs) < baseSecs*(1+3*fill) {
		secs++ // ceil
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// retryAfterSecs applies RetryAfterSecs to the service's current queue
// state.
func (s *Service) retryAfterSecs() int {
	return RetryAfterSecs(s.cfg.RetryAfter, s.QueuedTasks(), s.QueueCapacity())
}

// Ticket is a claim on a scheduled (or shared) solve.
type Ticket struct {
	t   *task
	svc *Service
	// f and cn are this submission's expression and its
	// canonicalization, which map the shared task's canonical variable
	// names back to the submitter's own.
	f  *ir.Function
	cn *canon.Canon
	// Collapsed reports that this submission attached to an already
	// live task instead of scheduling its own solve.
	Collapsed bool
	// Hash is the expression's canonical hash.
	Hash uint64
}

// Submit schedules f (or attaches to a live duplicate) and returns a
// Ticket to Wait on. It never blocks on a full queue: saturation is
// ErrSaturated, and the caller decides whether to retry.
func (s *Service) Submit(f *ir.Function) (*Ticket, error) {
	return s.submit(f, canon.Canonicalize(f))
}

// submit is Submit with f's canonicalization already computed.
func (s *Service) submit(f *ir.Function, cn *canon.Canon) (*Ticket, error) {
	var start time.Time
	if s.hSaturated != nil {
		start = time.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.mExprs != nil {
		s.mExprs.Inc()
	}
	if t, ok := s.live[cn.Key]; ok {
		s.mu.Unlock()
		if s.mCollapsed != nil {
			s.mCollapsed.Inc()
		}
		return &Ticket{t: t, svc: s, f: f, cn: cn, Collapsed: true, Hash: cn.Hash}, nil
	}
	t := &task{key: cn.Key, hash: cn.Hash, f: cn.F, done: make(chan struct{})}
	// Hash-affinity routing: the same canonical expression always lands
	// on the same worker, so even if the live map missed (task finished
	// a moment ago), duplicates serialize instead of solving twice in
	// parallel.
	q := s.queues[cn.Hash%uint64(len(s.queues))]
	select {
	case q <- t:
		s.live[cn.Key] = t
		s.mu.Unlock()
		if s.gQueue != nil {
			s.gQueue.Add(1)
		}
		return &Ticket{t: t, svc: s, f: f, cn: cn, Hash: cn.Hash}, nil
	default:
		s.mu.Unlock()
		if s.mRejected != nil {
			s.mRejected.Inc()
		}
		if s.hSaturated != nil {
			// The "latency" of a rejection: how long the fast-fail path
			// held the caller. Its _count is the saturation rate.
			s.hSaturated.Observe(time.Since(start))
		}
		return nil, ErrSaturated
	}
}

// attach returns a collapsed ticket on twin's task for f, a submission
// with the same canonical key: it is counted like a live-map collapse but
// never reaches the live map, so the collapse does not depend on whether
// twin's task has finished yet.
func (s *Service) attach(twin *Ticket, f *ir.Function, cn *canon.Canon) *Ticket {
	if s.mExprs != nil {
		s.mExprs.Inc()
		s.mCollapsed.Inc()
	}
	return &Ticket{t: twin.t, svc: s, f: f, cn: cn, Collapsed: true, Hash: cn.Hash}
}

// Result is one answered query.
type Result struct {
	Facts   []Fact
	Elapsed time.Duration // the solve's own duration (shared by waiters)
}

// Wait blocks until the ticket's solve completes or ctx is done.
func (tk *Ticket) Wait(ctx context.Context) (Result, error) {
	var start time.Time
	observeCollapsed := tk.Collapsed && tk.svc != nil && tk.svc.hCollapsed != nil
	if observeCollapsed {
		start = time.Now()
	}
	select {
	case <-tk.t.done:
		if observeCollapsed {
			// A collapsed waiter's cost is its wall wait, not the
			// original solve's duration (which hLatency already has).
			tk.svc.hCollapsed.Observe(time.Since(start))
		}
		if tk.t.err != nil {
			return Result{}, tk.t.err
		}
		return Result{Facts: tk.relabel(tk.t.facts), Elapsed: tk.t.elapsed}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// relabel renames the variable of every per-variable fact
// ("<analysis> (<var>)") from the canonical namespace the shared task
// solved in to this submission's own names, listing those facts in the
// submission's declaration order (as compare.Comparator.OracleFacts
// does). Other facts keep their place.
func (tk *Ticket) relabel(facts []Fact) []Fact {
	slot := make(map[string]int, len(tk.f.Vars)) // canonical name -> declaration index
	for i, v := range tk.f.Vars {
		slot[tk.cn.CanonName(v.Name)] = i
	}
	out := make([]Fact, 0, len(facts))
	perVar := make([][]Fact, len(tk.f.Vars))
	for _, fc := range facts {
		a := fc.Analysis
		if open := strings.LastIndex(a, " ("); open >= 0 && strings.HasSuffix(a, ")") {
			if i, ok := slot[a[open+2:len(a)-1]]; ok {
				fc.Analysis = a[:open+2] + tk.f.Vars[i].Name + ")"
				perVar[i] = append(perVar[i], fc)
				continue
			}
		}
		out = append(out, fc)
	}
	for _, fs := range perVar {
		out = append(out, fs...)
	}
	return out
}

func (s *Service) worker(i int) {
	defer s.wg.Done()
	for t := range s.queues[i] {
		s.runTask(i, t)
	}
}

// sampleSolve reports whether this solve's span should be recorded,
// honoring Config.TraceSample.
func (s *Service) sampleSolve() bool {
	n := s.cfg.TraceSample
	if n <= 1 {
		return true
	}
	return s.seq.Add(1)%uint64(n) == 1
}

// runTask solves one task, retires the live-map entry, records the
// solve, and publishes the result to every waiter. A panicking Solve is
// converted to an error so one poisonous expression cannot take a worker
// down.
func (s *Service) runTask(worker int, t *task) {
	s.busy[worker].Store(1)
	var sp *trace.Span
	var start time.Time
	var qBefore int64
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("factsvc: solve panicked: %v", r)
		}
		if t.elapsed == 0 && !start.IsZero() {
			t.elapsed = time.Since(start) // panic path: Solve never returned
		}
		s.mu.Lock()
		delete(s.live, t.key)
		s.mu.Unlock()
		s.busy[worker].Store(0)
		if s.gQueue != nil {
			s.gQueue.Add(-1)
		}
		if s.mSolved != nil {
			s.mSolved.Inc()
			if t.err != nil {
				s.mErrors.Inc()
			}
		}
		if s.hLatency != nil {
			s.hLatency.Observe(t.elapsed)
			if t.err != nil {
				s.hErrored.Observe(t.elapsed)
			} else {
				s.hSolved.Observe(t.elapsed)
			}
		}
		s.noteSlow(worker, t, sp, start, qBefore)
		sp.End()
		// Waiters are released last, so a caller that has its answer
		// also sees the solve in every metric, the slow log, and the
		// trace.
		close(t.done)
	}()
	ctx := context.Background()
	if s.sampleSolve() {
		sp = s.cfg.Tracer.Start(nil, trace.KindExpr, "factsvc")
	}
	if sp != nil {
		sp.SetInt("worker", int64(worker))
		sp.SetStr("hash", fmt.Sprintf("%016x", t.hash))
		ctx = trace.NewContext(ctx, sp)
	}
	if s.cSolverQ != nil {
		qBefore = s.cSolverQ.Value()
	}
	start = time.Now()
	t.facts, t.err = s.cfg.Solve(ctx, t.f)
	t.elapsed = time.Since(start)
}

// noteSlow offers the finished task to the slow-solve log and, on
// admission, makes sure the solve is visible in the trace: a sampled
// span gets a slow=1 attribute; a sampler-skipped solve is force-
// recorded after the fact via Tracer.Record.
func (s *Service) noteSlow(worker int, t *task, sp *trace.Span, start time.Time, qBefore int64) {
	if s.cfg.SlowLog == nil {
		return
	}
	// The solver-query delta is read off the shared process-wide
	// counter; with several workers solving concurrently it attributes
	// some neighbors' queries to this solve, so it is labeled ≈.
	var qDelta int64
	if s.cSolverQ != nil {
		qDelta = s.cSolverQ.Value() - qBefore
	}
	e := metrics.SlowEntry{
		When:    start,
		Hash:    fmt.Sprintf("%016x", t.hash),
		Op:      t.f.Root.Op.String(),
		Width:   t.f.Width(),
		Elapsed: t.elapsed,
		Worker:  worker,
		Detail:  fmt.Sprintf("facts=%d solver_queries≈%d", len(t.facts), qDelta),
	}
	if t.err != nil {
		e.Err = t.err.Error()
	}
	if !s.cfg.SlowLog.Note(e) {
		return
	}
	if sp != nil {
		sp.SetInt("slow", 1)
	} else if tr := s.cfg.Tracer; tr != nil {
		tr.Record(trace.KindExpr, "factsvc-slow", start, t.elapsed, map[string]any{
			"worker": worker,
			"hash":   e.Hash,
			"op":     e.Op,
			"width":  e.Width,
			"slow":   1,
		})
	}
}

// QueueLen returns the total number of queued-or-running tasks.
func (s *Service) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Close stops accepting submissions, drains the queues, and waits for
// the workers to exit. Safe to call once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
}
