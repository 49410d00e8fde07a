package lp

import (
	"context"
	"math/rand"
	"testing"
)

// rowCountingCore counts the pivot rows its core computes and the basis
// exchanges it installs, and how many rows those exchanges ask for: one for
// every exchange but a lex-pass one whose entering column has reduced cost
// exactly zero. The reduced cost is read when the entering column's tableau
// column is computed, which every pass does last before the exchange.
type rowCountingCore struct {
	tableauCore
	s *simplex
	n *rowCounts
}

// rowCounts is what a rowCountingCore counts.
type rowCounts struct {
	rows, exchanges int
	want            int     // pivot rows the exchanges ask for
	zeroLex         int     // lex-pass exchanges entering at reduced cost exactly zero
	d               float64 // reduced cost of the column computed last
}

func (c rowCountingCore) column(j int, dst []float64) {
	c.n.d = c.s.reduced[j]
	c.tableauCore.column(j, dst)
}

func (c rowCountingCore) columnSince(j int, dst []float64, since int) {
	c.n.d = c.s.reduced[j]
	c.tableauCore.columnSince(j, dst, since)
}

func (c rowCountingCore) pivotRow(r int, dst []float64) {
	c.n.rows++
	c.tableauCore.pivotRow(r, dst)
}

func (c rowCountingCore) applyPivot(enter, leaveRow int, alpha []float64) bool {
	c.n.exchanges++
	if c.s.lexPivoting && c.n.d == 0 {
		c.n.zeroLex++
	} else {
		c.n.want++
	}
	return c.tableauCore.applyPivot(enter, leaveRow, alpha)
}

// TestPivotRowOncePerExchange: a basis exchange costs one pivot row, and
// none when it needs no row. The dual simplex reuses the row of its ratio
// test for the pivot; a primal or lex-pass exchange computes its row right
// before the pivot, which reads it only for the rank-one reduced-cost
// update, so a lex-pass exchange whose entering reduced cost is exactly zero
// computes none. On warm solves of bound-tightened children (the
// branch-and-bound shape, dual simplex then the primal and lex passes) that
// end optimal, the core computes exactly one row per exchange but those, and
// both kinds of exchange occur.
func TestPivotRowOncePerExchange(t *testing.T) {
	var totalRows, totalExchanges, totalZero, warmOptimal int
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := degenerateLP(rng, 4+int(seed%13), 3+int(seed%11))
		root, err := SolveCtx(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if root.Basis == nil {
			continue
		}
		// Each child moves one variable off its root value by one, as a
		// branch does, so the root basis is a warm start the dual must
		// repair.
		for j, v := range p.Variables {
			opts := Options{WarmBasis: root.Basis}
			switch x := root.X[j]; {
			case x+1 <= v.Upper:
				opts.LowerOverride = map[int]float64{j: x + 1}
			case x-1 >= v.Lower:
				opts.UpperOverride = map[int]float64{j: x - 1}
			default:
				continue
			}
			var n rowCounts
			opts.newCore = func(s *simplex) tableauCore {
				return rowCountingCore{newSparseCore(s, buildCSC(s)), s, &n}
			}
			sol, err := SolveCtx(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("seed %d child %d: %v", seed, j, err)
			}
			if sol.Status != StatusOptimal {
				continue
			}
			if n.rows != n.want {
				t.Errorf("seed %d child %d: warm solve computed %d pivot rows for %d exchanges, %d of them lex moves at reduced cost zero",
					seed, j, n.rows, n.exchanges, n.zeroLex)
			}
			totalRows += n.rows
			totalExchanges += n.exchanges
			totalZero += n.zeroLex
			warmOptimal++
		}
	}
	t.Logf("%d warm optimal solves: %d pivot rows, %d exchanges, %d of them lex moves at reduced cost zero",
		warmOptimal, totalRows, totalExchanges, totalZero)
	if totalZero == 0 || totalRows == 0 {
		t.Errorf("%d exchanges needed a row and %d none: the test exercises only one kind", totalRows, totalZero)
	}
}
