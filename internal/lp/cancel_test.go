package lp

import (
	"context"
	"testing"
)

// smallLP builds a 2-variable LP with a nontrivial optimum so that solving it
// requires at least one pivot.
func smallLP() *Problem {
	p := NewProblem()
	x := p.AddVariable("x", 0, Infinity, -3)
	y := p.AddVariable("y", 0, Infinity, -2)
	p.AddConstraint("c1", []Entry{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint("c2", []Entry{{x, 1}, {y, 3}}, LE, 6)
	return p
}

func TestSolveCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveCtx(ctx, smallLP(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCancelled {
		t.Errorf("status = %v, want %v", sol.Status, StatusCancelled)
	}
}

// secondCallCancelled is a context whose Err reports Canceled from its second
// call onwards: the solve sees it live at its first poll and cancelled at
// every poll after that.
type secondCallCancelled struct {
	context.Context
	calls int
}

func (c *secondCallCancelled) Done() <-chan struct{} { return make(chan struct{}) }

func (c *secondCallCancelled) Err() error {
	c.calls++
	if c.calls >= 2 {
		return context.Canceled
	}
	return nil
}

// TestLexCanonicalizeHonoursContext checks that the canonicalization pass
// after optimality polls the context. min 0 s.t. x + y = 4, 0 <= x, y <= 10
// takes one primal pivot to x = 4 (the primal loop polls once, at iteration
// 0) and then one lex move to (0, 4); the context fires between the two, so
// the solve must stop before the move.
func TestLexCanonicalizeHonoursContext(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, 0)
	y := p.AddVariable("y", 0, 10, 0)
	p.AddConstraint("sum", []Entry{{x, 1}, {y, 1}}, EQ, 4)
	ctx := &secondCallCancelled{Context: context.Background()}
	sol, err := SolveCtx(ctx, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCancelled || sol.Basis != nil {
		t.Errorf("status = %v, basis exported = %v; want %v and no basis (X = %v)",
			sol.Status, sol.Basis != nil, StatusCancelled, sol.X)
	}
}

func TestStatusCancelledString(t *testing.T) {
	if StatusCancelled.String() != "cancelled" {
		t.Errorf("StatusCancelled.String() = %q", StatusCancelled.String())
	}
}
