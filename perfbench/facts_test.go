package main

import (
	"strings"
	"testing"

	"dfcheck/internal/factsvc"
)

func answer(expr string, facts ...string) exprAnswer {
	a := exprAnswer{Expr: expr}
	for i := 0; i < nonDemandedFacts; i++ {
		a.Facts = append(a.Facts, factsvc.Fact{Analysis: "a" + string(rune('0'+i)), Fact: "f"})
	}
	for _, f := range facts {
		a.Facts = append(a.Facts, factsvc.Fact{Analysis: "demanded bits (x0)", Fact: f})
	}
	return a
}

func TestAnswerCheck(t *testing.T) {
	b := factsBatch{exprs: []string{"e1", "e1", "e2", "e3"}, warmOf: []int{0, 0, 0, -1}}
	good := queryResponse{Results: []exprAnswer{answer("e1", "11"), answer("e1", "11"), answer("e2", "01"), answer("e3")}}
	c := newAnswerCheck()
	c.batch(b, good)
	if len(c.problems) > 0 || c.failed > 0 || c.attempted != 4 {
		t.Fatalf("consistent batch: problems %v, failed %d, attempted %d", c.problems, c.failed, c.attempted)
	}

	c.batch(b, queryResponse{Results: []exprAnswer{answer("e1", "10"), answer("e1", "11"), answer("e2", "01"), answer("e3")}})
	if len(c.problems) == 0 || !strings.Contains(c.problems[0], "same text") {
		t.Errorf("different answers to identical text not flagged: %v", c.problems)
	}

	c = newAnswerCheck()
	variant := answer("e2")
	variant.Facts[2].Fact = "g"
	c.batch(b, queryResponse{Results: []exprAnswer{answer("e1"), answer("e1"), variant, answer("e3")}})
	if len(c.problems) == 0 || !strings.Contains(c.problems[0], "alpha-variants") {
		t.Errorf("disagreeing alpha-variants not flagged: %v", c.problems)
	}

	c = newAnswerCheck()
	refused := answer("e3")
	refused.Error, refused.Facts = "queue saturated", nil
	c.batch(b, queryResponse{Results: []exprAnswer{answer("e1"), answer("e1"), answer("e2"), refused}, Rejected: 1})
	if c.failed != 1 || c.rejected != 1 {
		t.Errorf("refused expression: failed %d, rejected %d; want 1, 1", c.failed, c.rejected)
	}
}
