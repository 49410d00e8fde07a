package lp

import "math"

// BasisStatus is the role of one column in an exported Basis.
type BasisStatus int8

// Column roles. Nonbasic columns sit at one of their bounds (or at zero when
// free); basic columns take whatever value satisfies the constraints.
const (
	BasisAtLower BasisStatus = iota
	BasisAtUpper
	BasisFree
	BasisBasic
)

// Basis is a snapshot of a simplex basis, detached from any solver state: the
// basic column of every tableau row plus the status of every column. Columns
// are the problem's structural variables followed by one slack per
// constraint; artificial columns never appear (a solve whose optimal basis
// still contains an artificial exports no basis at all).
//
// A Basis exported from one solve can warm-start another solve of the same
// problem through Options.WarmBasis, as long as only bounds changed — which
// is exactly the shape of a branch-and-bound child node. The solver treats an
// imported Basis as read-only, so one Basis may seed many concurrent solves.
type Basis struct {
	Basic  []int32       // basic column per row, len == number of constraints
	Status []BasisStatus // per column, len == variables + constraints
}

// compatible reports whether the basis dimensions match a problem with m
// constraints and nStruct structural variables, every basic column is in
// range and marked basic, no column is basic twice, and exactly the basic
// columns carry BasisBasic.
func (b *Basis) compatible(m, nStruct int) bool {
	if b == nil || len(b.Basic) != m || len(b.Status) != nStruct+m {
		return false
	}
	basicStatuses := 0
	for _, st := range b.Status {
		if st == BasisBasic {
			basicStatuses++
		}
	}
	if basicStatuses != m {
		return false
	}
	seen := make([]bool, nStruct+m)
	for _, c := range b.Basic {
		if c < 0 || int(c) >= nStruct+m || seen[c] || b.Status[c] != BasisBasic {
			return false
		}
		seen[c] = true
	}
	return true
}

// exportBasis snapshots the current basis, or returns nil when an artificial
// column is still basic (a child solve could not reconstruct it).
func (s *simplex) exportBasis() *Basis {
	for _, j := range s.basis {
		if j >= s.artStart {
			return nil
		}
	}
	b := &Basis{
		Basic:  make([]int32, s.m),
		Status: make([]BasisStatus, s.nStruct+s.m),
	}
	for i, j := range s.basis {
		b.Basic[i] = int32(j)
	}
	for j := 0; j < s.nStruct+s.m; j++ {
		switch s.status[j] {
		case atLower:
			b.Status[j] = BasisAtLower
		case atUpper:
			b.Status[j] = BasisAtUpper
		case atFree:
			b.Status[j] = BasisFree
		case inBasis:
			b.Status[j] = BasisBasic
		}
	}
	return b
}

// installBasis loads an exported basis into a freshly constructed solver
// (newSimplexBase state: bounds and costs set, no artificials). It returns
// false — leaving the solver unusable — when the basis does not fit the
// problem, its basis matrix is singular under the deterministic
// refactorization, or the resulting reduced costs are not dual-feasible; the
// caller then falls back to a cold primal solve.
func (s *simplex) installBasis(b *Basis) bool {
	if !b.compatible(s.m, s.nStruct) {
		return false
	}
	s.basis = make([]int, s.m)
	for i, c := range b.Basic {
		s.basis[i] = int(c)
	}
	for j := 0; j < s.n; j++ {
		var st varStatus
		switch b.Status[j] {
		case BasisAtLower:
			st = atLower
		case BasisAtUpper:
			st = atUpper
		case BasisFree:
			st = atFree
		case BasisBasic:
			st = inBasis
		default:
			return false
		}
		s.status[j] = st
		if st != inBasis {
			s.status[j] = s.normalizeNonbasic(j, st)
		}
	}
	// A warm start never has artificial columns, so the column set is final
	// and the core can be stood up here.
	s.initCore()
	if !s.refactorize() {
		return false
	}
	s.computeReducedCosts()
	return s.dualFeasible()
}

// normalizeNonbasic reconciles an imported nonbasic status with the current
// bounds: a bound the status refers to may have become infinite (or the
// variable fixed) relative to the exporting solve.
func (s *simplex) normalizeNonbasic(j int, st varStatus) varStatus {
	lo, up := s.lower[j], s.upper[j]
	if lo == up {
		return atLower
	}
	loInf := math.IsInf(lo, -1)
	upInf := math.IsInf(up, 1)
	switch st {
	case atLower:
		if loInf {
			if upInf {
				return atFree
			}
			return atUpper
		}
	case atUpper:
		if upInf {
			if loInf {
				return atFree
			}
			return atLower
		}
	case atFree:
		if !loInf || !upInf {
			return initialStatus(lo, up)
		}
	}
	return st
}

// dualFeasible reports whether the phase-2 reduced costs respect the sign
// conditions of every nonbasic column. The tolerance is looser than the
// pivoting tolerance because an imported basis was optimal under bit-
// different arithmetic.
func (s *simplex) dualFeasible() bool {
	tol := 10 * s.tol
	for j := 0; j < s.n; j++ {
		if s.status[j] == inBasis || s.lower[j] == s.upper[j] {
			continue
		}
		d := s.reduced[j]
		switch s.status[j] {
		case atLower:
			if d < -tol {
				return false
			}
		case atUpper:
			if d > tol {
				return false
			}
		case atFree:
			if math.Abs(d) > tol {
				return false
			}
		}
	}
	return true
}
