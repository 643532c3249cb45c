package factsvc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dfcheck/internal/canon"
	"dfcheck/internal/ir"
	"dfcheck/internal/metrics"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Solve == nil {
		cfg.Solve = func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			return []Fact{{Analysis: "known bits", Fact: "xxxxxxxx"}}, nil
		}
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func postFacts(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/facts", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeResp(t *testing.T, w *httptest.ResponseRecorder) queryResponse {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	h := newTestService(t, Config{Workers: 1}).Handler()

	req := httptest.NewRequest(http.MethodGet, "/v1/facts", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", w.Code)
	}
	if w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow = %q", w.Header().Get("Allow"))
	}

	if w := postFacts(t, h, "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", w.Code)
	}
	if w := postFacts(t, h, `{"exprs": []}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", w.Code)
	}
	big, _ := json.Marshal(map[string]any{"exprs": make([]string, MaxBatch+1)})
	if w := postFacts(t, h, string(big)); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", w.Code)
	}
}

// A batch mixing valid, duplicate, and malformed expressions: the valid
// ones are answered, duplicates collapse onto one solve, the malformed
// one gets a per-expression parse error — and the whole thing is 200,
// never a 5xx.
func TestHandlerBatchWithDuplicatesAndParseErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	svc := newTestService(t, Config{Workers: 1, Metrics: reg})
	h := svc.Handler()

	body, _ := json.Marshal(map[string][]string{"exprs": {
		exprSrc,
		"%x:i8 = var\ninfer %x %% garbage",
		exprSrc, // exact duplicate of the first
	}})
	w := postFacts(t, h, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	resp := decodeResp(t, w)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Facts) == 0 {
		t.Fatalf("result 0: %+v", resp.Results[0])
	}
	if !strings.Contains(resp.Results[1].Error, "parse") {
		t.Fatalf("result 1 error = %q, want parse error", resp.Results[1].Error)
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Facts) == 0 {
		t.Fatalf("result 2: %+v", resp.Results[2])
	}
	if resp.Results[0].Hash != resp.Results[2].Hash {
		t.Fatalf("duplicate hashes differ: %q vs %q", resp.Results[0].Hash, resp.Results[2].Hash)
	}
	// Whether the duplicate collapsed in flight or was answered by the
	// live map depends only on submission order here: both were
	// submitted before any wait, so the duplicate must have collapsed.
	if !resp.Results[2].Collapsed {
		t.Fatal("intra-batch duplicate did not collapse")
	}
	if got := reg.Snapshot().Counters["factsvc_inflight_collapsed"]; got != 1 {
		t.Fatalf("factsvc_inflight_collapsed = %d, want 1", got)
	}
}

// An intra-batch duplicate collapses onto its twin's ticket even when the
// twin's task has already finished and left the live map — the timing
// that used to dispatch the duplicate as a second solve. Counted as
// collapsed, observed under outcome="collapsed", never solved twice.
func TestIntraBatchDuplicateCollapsesAfterTwinFinished(t *testing.T) {
	reg := metrics.NewRegistry()
	var solves atomic.Int64
	svc := newTestService(t, Config{Workers: 1, Metrics: reg,
		Solve: func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			solves.Add(1)
			return []Fact{{Analysis: "non-zero", Fact: "true"}}, nil
		}})
	f := mustParse(t, exprSrc)
	twin, err := svc.Submit(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := svc.QueueLen(); n != 0 {
		t.Fatalf("twin still live (%d tasks); test premise broken", n)
	}
	g := mustParse(t, exprSrc)
	dup := svc.attach(twin, g, canon.Canonicalize(g))
	if !dup.Collapsed {
		t.Fatal("attached ticket not marked collapsed")
	}
	res, err := dup.Wait(context.Background())
	if err != nil || len(res.Facts) != 1 {
		t.Fatalf("collapsed answer = %+v, %v", res, err)
	}
	snap := reg.Snapshot()
	if got := solves.Load(); got != 1 {
		t.Errorf("%d solves, want 1", got)
	}
	if got := snap.Counters["factsvc_inflight_collapsed"]; got != 1 {
		t.Errorf("factsvc_inflight_collapsed = %d, want 1", got)
	}
	if got := snap.Counters["factsvc_exprs"]; got != 2 {
		t.Errorf("factsvc_exprs = %d, want 2", got)
	}
	if got := snap.Histograms[`factsvc_solve_latency{outcome="collapsed"}`].Count; got != 1 {
		t.Errorf(`outcome="collapsed" count = %d, want 1`, got)
	}
	if got := snap.Histograms[`factsvc_solve_latency{outcome="solved"}`].Count; got != 1 {
		t.Errorf(`outcome="solved" count = %d, want 1`, got)
	}
}

// Per-variable facts come back in each request's own variable names and
// declaration order, although alpha-variants in one batch share a solve
// on the canonical form (whose variables are x0, x1, ...).
func TestHandlerAnswersInRequestNames(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1,
		Solve: func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			facts := []Fact{{Analysis: "non-zero", Fact: "false"}}
			for _, v := range f.Vars {
				facts = append(facts, Fact{Analysis: "demanded bits (" + v.Name + ")", Fact: "mask of " + v.Name})
			}
			return facts, nil
		}})
	body, _ := json.Marshal(map[string][]string{"exprs": {
		"%a:i8 = var\n%b:i8 = var\n%0:i8 = and 15:i8, %a\n%1:i8 = or %0, %b\ninfer %1",
		"%q:i8 = var\n%p:i8 = var\n%0:i8 = and 15:i8, %p\n%1:i8 = or %q, %0\ninfer %1",
	}})
	resp := decodeResp(t, postFacts(t, svc.Handler(), string(body)))
	if len(resp.Results) != 2 || !resp.Results[1].Collapsed {
		t.Fatalf("alpha-variants did not share a solve: %+v", resp.Results)
	}
	a, q := resp.Results[0].Facts, resp.Results[1].Facts
	if len(a) != 3 || len(q) != 3 {
		t.Fatalf("fact counts %d, %d, want 3 each", len(a), len(q))
	}
	if a[0] != q[0] || a[0].Analysis != "non-zero" {
		t.Errorf("variable-free fact moved: %v vs %v", a[0], q[0])
	}
	if a[1].Analysis != "demanded bits (a)" || a[2].Analysis != "demanded bits (b)" {
		t.Errorf("first answer labels = %q, %q", a[1].Analysis, a[2].Analysis)
	}
	if q[1].Analysis != "demanded bits (q)" || q[2].Analysis != "demanded bits (p)" {
		t.Errorf("variant labels = %q, %q, want its own q, p in declaration order", q[1].Analysis, q[2].Analysis)
	}
	// p plays a's role and q plays b's, so they carry the same masks.
	if q[2].Fact != a[1].Fact || q[1].Fact != a[2].Fact {
		t.Errorf("variant masks not mapped through the canonical names: %v vs %v", q, a)
	}
}

// Saturation: with a blocked single worker and a full queue, extra
// distinct expressions come back 429 with a Retry-After header, while
// the accepted ones still answer — graceful degradation, not failure.
func TestHandlerSaturationReturns429RetryAfter(t *testing.T) {
	reg := metrics.NewRegistry()
	release := make(chan struct{})
	first := make(chan struct{})
	started := false
	svc := newTestService(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Metrics:    reg,
		RetryAfter: 3 * time.Second,
		Solve: func(ctx context.Context, f *ir.Function) ([]Fact, error) {
			if !started {
				started = true
				close(first)
			}
			<-release
			return []Fact{{Analysis: "non-zero", Fact: "true"}}, nil
		},
	})
	h := svc.Handler()

	// Fill the pipeline: one solving, one queued.
	if _, err := svc.Submit(ir.MustParse("%x:i8 = var\n%0:i8 = add 9:i8, %x\ninfer %0")); err != nil {
		t.Fatal(err)
	}
	<-first // the worker is now stuck in the first solve
	if _, err := svc.Submit(ir.MustParse("%x:i8 = var\n%0:i8 = add 10:i8, %x\ninfer %0")); err != nil {
		t.Fatal(err)
	}

	// The request's expressions cannot be accepted.
	body, _ := json.Marshal(map[string][]string{"exprs": {
		"%x:i8 = var\n%0:i8 = add 11:i8, %x\ninfer %0",
		"%x:i8 = var\n%0:i8 = add 12:i8, %x\ninfer %0",
	}})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postFacts(t, h, string(body)) }()
	var w *httptest.ResponseRecorder
	select {
	case w = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("saturated request blocked instead of failing fast")
	}
	close(release)

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", w.Code, w.Body.String())
	}
	// The queue is completely full (1 queued / capacity 1), so the
	// advertised backoff is the saturation ceiling: base × 4 (see
	// RetryAfterSecs).
	if got := w.Header().Get("Retry-After"); got != "12" {
		t.Fatalf("Retry-After = %q, want \"12\" (4×base at full saturation)", got)
	}
	resp := decodeResp(t, w)
	if resp.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", resp.Rejected)
	}
	for i, r := range resp.Results {
		if !strings.Contains(r.Error, "saturated") {
			t.Fatalf("result %d error = %q, want saturation", i, r.Error)
		}
	}
	if got := reg.Snapshot().Counters["factsvc_rejected"]; got != 2 {
		t.Fatalf("factsvc_rejected = %d, want 2", got)
	}
}
