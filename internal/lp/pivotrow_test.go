package lp

import (
	"context"
	"math/rand"
	"testing"
)

// rowCountingCore counts the pivot rows its core computes and the basis
// exchanges it installs.
type rowCountingCore struct {
	tableauCore
	rows, exchanges *int
}

func (c rowCountingCore) pivotRow(r int, dst []float64) {
	*c.rows++
	c.tableauCore.pivotRow(r, dst)
}

func (c rowCountingCore) applyPivot(enter, leaveRow int, alpha []float64) bool {
	*c.exchanges++
	return c.tableauCore.applyPivot(enter, leaveRow, alpha)
}

// TestPivotRowOncePerExchange: every basis exchange costs one pivot row.
// The dual simplex reuses the row of its ratio test for the pivot, so on
// warm solves of bound-tightened children (the branch-and-bound shape, dual
// simplex then the primal and lex passes) that end optimal, the core
// computes exactly as many pivot rows as it installs exchanges.
func TestPivotRowOncePerExchange(t *testing.T) {
	var totalRows, totalExchanges, warmOptimal int
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
			var rows, exchanges int
			opts.newCore = func(s *simplex) tableauCore {
				return rowCountingCore{newSparseCore(s, buildCSC(s)), &rows, &exchanges}
			}
			sol, err := SolveCtx(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("seed %d child %d: %v", seed, j, err)
			}
			if sol.Status != StatusOptimal {
				continue
			}
			if rows != exchanges {
				t.Errorf("seed %d child %d: warm solve computed %d pivot rows for %d exchanges", seed, j, rows, exchanges)
			}
			totalRows += rows
			totalExchanges += exchanges
			warmOptimal++
		}
	}
	t.Logf("%d warm optimal solves: %d pivot rows, %d exchanges", warmOptimal, totalRows, totalExchanges)
	if totalExchanges == 0 {
		t.Error("no warm solve pivoted; the test exercises nothing")
	}
}
