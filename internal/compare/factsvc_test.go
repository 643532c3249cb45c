package compare

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dfcheck/internal/factsvc"
	"dfcheck/internal/ir"
	"dfcheck/internal/llvmport"
)

// TestFactServiceAnswersInRequestNames: two alpha-variants in one
// POST /v1/facts batch share one solve, yet each answer names its
// demanded bits with its own variables, in its own declaration order —
// exactly what OracleFacts returns for that expression.
func TestFactServiceAnswersInRequestNames(t *testing.T) {
	c := &Comparator{Analyzer: &llvmport.Analyzer{}}
	svc, err := c.NewFactService(factsvc.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if c.Cache == nil {
		t.Fatal("NewFactService did not install a cache on a comparator without one")
	}

	srcs := []string{
		"%a:i8 = var\n%b:i8 = var\n%0:i8 = and 15:i8, %a\n%1:i8 = or %0, %b\ninfer %1",
		// The same expression with renamed variables, declared in the
		// other order, and the commutative operands swapped.
		"%q:i8 = var\n%p:i8 = var\n%0:i8 = and 15:i8, %p\n%1:i8 = or %q, %0\ninfer %1",
	}
	body, _ := json.Marshal(map[string][]string{"exprs": srcs})
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/facts", strings.NewReader(string(body))))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp struct {
		Results []factsvc.ExprAnswer `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d answers, want 2", len(resp.Results))
	}
	if resp.Results[0].Hash != resp.Results[1].Hash || !resp.Results[1].Collapsed {
		t.Fatalf("alpha-variants did not share one solve: %+v", resp.Results)
	}
	for i, src := range srcs {
		ans := resp.Results[i]
		if ans.Error != "" {
			t.Fatalf("answer %d: %s", i, ans.Error)
		}
		want := c.OracleFacts(context.Background(), ir.MustParse(src))
		if !reflect.DeepEqual(ans.Facts, want) {
			t.Errorf("answer %d facts differ from OracleFacts:\ngot  %v\nwant %v", i, ans.Facts, want)
		}
	}
	if got := resp.Results[1].Facts[7].Analysis; got != "demanded bits (q)" {
		t.Errorf("variant's first demanded-bits label = %q, want its own first variable q", got)
	}
}
