package factsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/ir"
)

// The HTTP query API: POST /v1/facts with a batch of expressions, get
// the dataflow facts back. The endpoint mounts on the same mux as the
// -http debug server (expvar, pprof), so one listener serves queries,
// metrics, and profiles.
//
// Error discipline: the endpoint never 5xxes. Client mistakes (wrong
// method, bad JSON, oversized batch) are 4xx; a per-expression parse or
// solve failure is reported in that expression's answer while the rest
// of the batch proceeds; saturation is 429 with a Retry-After header
// and per-expression "queue saturated" errors — partial answers are
// still returned, and the cache makes the retry cheap.

// MaxBatch bounds expressions per request; larger batches are a client
// error (split them), not a reason to queue unbounded parse work.
const MaxBatch = 1024

// queryRequest is the POST /v1/facts body.
type queryRequest struct {
	Exprs []string `json:"exprs"`
}

// ExprAnswer is one expression's slot in the response, in submission
// order.
type ExprAnswer struct {
	Expr string `json:"expr"`
	// Hash is the canonical hash (%016x) — the dedup identity; two
	// answers with equal hashes came from one solve or cache line.
	Hash  string `json:"hash,omitempty"`
	Facts []Fact `json:"facts,omitempty"`
	// ElapsedNs is the solve's own duration; collapsed and cached
	// answers replay the original computation's time.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
	// Collapsed marks answers that shared an in-flight solve (either
	// an earlier expression in this batch or a concurrent request).
	Collapsed bool `json:"collapsed,omitempty"`
	// Error is set for per-expression failures: parse errors, solve
	// errors, or "queue saturated" under backpressure.
	Error string `json:"error,omitempty"`
}

// queryResponse is the POST /v1/facts response body.
type queryResponse struct {
	Results []ExprAnswer `json:"results"`
	// Rejected counts expressions refused for saturation; when > 0 the
	// status is 429 and Retry-After is set.
	Rejected int `json:"rejected,omitempty"`
}

// Handler returns the /v1/facts handler. Mount with
// mux.Handle("/v1/facts", svc.Handler()).
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(s.serveFacts)
}

func (s *Service) serveFacts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if m := s.cfg.Metrics; m != nil {
		m.Counter("factsvc_requests").Inc()
		defer func() { m.Histogram("factsvc_batch_latency").Observe(time.Since(start)) }()
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Exprs) == 0 {
		http.Error(w, `empty batch: body must be {"exprs": ["<souper text>", ...]}`, http.StatusBadRequest)
		return
	}
	if len(req.Exprs) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Exprs), MaxBatch), http.StatusBadRequest)
		return
	}

	// Two passes: submit everything first, then wait. An intra-batch
	// duplicate (same canonical key) shares the first entry's ticket, so
	// it always collapses onto one solve, whether or not that solve has
	// already finished.
	resp := queryResponse{Results: make([]ExprAnswer, len(req.Exprs))}
	tickets := make([]*Ticket, len(req.Exprs))
	byKey := make(map[string]*Ticket, len(req.Exprs))
	for i, src := range req.Exprs {
		resp.Results[i].Expr = src
		f, err := ir.Parse(src)
		if err != nil {
			resp.Results[i].Error = "parse: " + err.Error()
			continue
		}
		cn := canon.Canonicalize(f)
		if twin := byKey[cn.Key]; twin != nil {
			tickets[i] = s.attach(twin, f, cn)
			continue
		}
		tk, err := s.submit(f, cn)
		switch {
		case err == ErrSaturated:
			resp.Results[i].Error = "queue saturated"
			resp.Rejected++
		case err != nil:
			resp.Results[i].Error = err.Error()
		default:
			tickets[i] = tk
			byKey[cn.Key] = tk
		}
	}
	for i, tk := range tickets {
		if tk == nil {
			continue
		}
		ans := &resp.Results[i]
		ans.Hash = fmt.Sprintf("%016x", tk.Hash)
		ans.Collapsed = tk.Collapsed
		res, err := tk.Wait(r.Context())
		if err != nil {
			ans.Error = err.Error()
			continue
		}
		ans.Facts = res.Facts
		ans.ElapsedNs = res.Elapsed.Nanoseconds()
	}

	status := http.StatusOK
	if resp.Rejected > 0 {
		// Retry-After scales with how full the queues are right now (see
		// RetryAfterSecs): a transient spike advertises the base backoff,
		// sustained saturation up to 4× it.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		status = http.StatusTooManyRequests
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(resp); err != nil && s.cfg.Metrics != nil {
		// The client went away mid-write; nothing to serve them.
		s.cfg.Metrics.Counter("factsvc_write_errors").Inc()
	}
}
