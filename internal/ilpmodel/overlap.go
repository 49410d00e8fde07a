package ilpmodel

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
)

// box is one rectangle participating in the non-overlap constraints of
// Eq. 16–20. Its four expanded edges are linear expressions over model
// variables (constants for fixed objects).
type box struct {
	shape layout.Shape // which device or segment it is, for SpacingExempt

	xlo, xhi, ylo, yhi *milp.Expr

	warm    geom.Rect // expanded rectangle in the Fixed layout
	isConst bool
}

// buildOverlap creates the pairwise non-overlap constraints between all
// device bodies and microstrip segments (Eq. 16–20), honouring the
// pair-radius pruning. It skips the pairs the spacing rule exempts, by the
// same layout.SpacingExempt the design-rule check uses.
func (m *Model) buildOverlap() {
	boxes := m.collectBoxes()
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			a, b := boxes[i], boxes[j]
			if a.isConst && b.isConst {
				continue
			}
			if layout.SpacingExempt(a.shape, b.shape) {
				continue
			}
			if m.Config.PairRadius > 0 && a.warm.Distance(b.warm) > m.Config.PairRadius {
				continue
			}
			m.overlapPairs++
			pair := fmt.Sprintf("ovl.%s#%d.%s#%d", a.shape.Name(), a.shape.Seg, b.shape.Name(), b.shape.Seg)
			if m.Config.Global {
				// Keep only the separation Fixed already realizes (or comes
				// closest to realizing), relaxed by a penalized slack
				// (Section 5.1 tolerates residual overlap): no disjunction
				// binaries.
				s := m.MILP.AddContinuous(pair+".slack", 0, m.areaW+m.areaH)
				m.MILP.AddObjectiveCoef(s, weightEta)
				slack := milp.Term(s, 1)
				switch bestSeparation(a.warm, b.warm) {
				case 0:
					m.addSlackSeparation(pair+".left", a.xhi, b.xlo, slack)
				case 1:
					m.addSlackSeparation(pair+".right", b.xhi, a.xlo, slack)
				case 2:
					m.addSlackSeparation(pair+".below", a.yhi, b.ylo, slack)
				default:
					m.addSlackSeparation(pair+".above", b.yhi, a.ylo, slack)
				}
				continue
			}
			u := [4]milp.Var{}
			sum := milp.NewExpr()
			for k := 0; k < 4; k++ {
				u[k] = m.MILP.AddBinary(fmt.Sprintf("%s.u%d", pair, k))
				sum.Add(u[k], 1)
			}
			// Eq. 20: at least one separation case must be active.
			m.MILP.AddLE(pair+".pick", sum, 3)
			// Eq. 16–19: the four separation cases, each relaxable by its
			// binary.
			m.addSeparation(pair+".left", a.xhi, b.xlo, u[0])
			m.addSeparation(pair+".right", b.xhi, a.xlo, u[1])
			m.addSeparation(pair+".below", a.yhi, b.ylo, u[2])
			m.addSeparation(pair+".above", b.yhi, a.ylo, u[3])
		}
	}
}

// addSeparation adds "hi ≤ lo + M·u".
func (m *Model) addSeparation(name string, hi, lo *milp.Expr, u milp.Var) {
	m.MILP.AddLE(name, hi.Clone().AddExpr(lo, -1).Add(u, -m.bigM), 0)
}

// addSlackSeparation adds "hi ≤ lo + slack" with no relaxation binary.
func (m *Model) addSlackSeparation(name string, hi, lo, slack *milp.Expr) {
	m.MILP.AddLE(name, hi.Clone().AddExpr(lo, -1).AddExpr(slack, -1), 0)
}

// bestSeparation returns which of the four separation cases (0 a-left-of-b,
// 1 b-left-of-a, 2 a-below-b, 3 b-below-a) the two warm rectangles realize
// best, i.e. with the largest (least negative) gap.
func bestSeparation(a, b geom.Rect) int {
	gaps := [4]geom.Coord{
		b.Min.X - a.Max.X, // a left of b
		a.Min.X - b.Max.X, // b left of a
		b.Min.Y - a.Max.Y, // a below b
		a.Min.Y - b.Max.Y, // b below a
	}
	best := 0
	for k := 1; k < 4; k++ {
		if gaps[k] > gaps[best] {
			best = k
		}
	}
	return best
}

// collectBoxes builds the expanded bounding boxes of all devices and
// segments.
func (m *Model) collectBoxes() []box {
	var out []box

	// Device bodies.
	for _, d := range m.Circuit.Devices {
		dv := m.devices[d.Name]
		w, h := d.Dimensions(dv.orient)
		halfW := geom.Microns(w)/2 + m.clearance
		halfH := geom.Microns(h)/2 + m.clearance
		bx := box{
			shape: layout.Shape{Device: d, Seg: -1},
			warm:  m.Config.Fixed.Placed(d.Name).BodyRect().Expand(m.Circuit.Tech.Clearance()),
		}
		if dv.free {
			cx, cy := m.centerExpr(dv)
			bx.xlo = cx.Clone().AddConst(-halfW)
			bx.xhi = cx.Clone().AddConst(halfW)
			bx.ylo = cy.Clone().AddConst(-halfH)
			bx.yhi = cy.Clone().AddConst(halfH)
		} else {
			r := bx.warm // a fixed device sits where Fixed has it
			bx.xlo = milp.Constant(geom.Microns(r.Min.X))
			bx.xhi = milp.Constant(geom.Microns(r.Max.X))
			bx.ylo = milp.Constant(geom.Microns(r.Min.Y))
			bx.yhi = milp.Constant(geom.Microns(r.Max.Y))
			bx.isConst = true
		}
		out = append(out, bx)
	}

	// Microstrip segments.
	for _, ms := range m.Circuit.Microstrips {
		sv := m.strips[ms.Name]

		if !sv.free {
			segs := (geom.Polyline{Points: sv.fixedPts, Width: m.Circuit.Tech.StripWidth(ms.Width)}).Segments()
			for k, seg := range segs {
				r := seg.Rect().Expand(m.Circuit.Tech.Clearance())
				out = append(out, box{
					shape:   layout.Shape{Strip: ms, Seg: k, Segs: len(segs)},
					xlo:     milp.Constant(geom.Microns(r.Min.X)),
					xhi:     milp.Constant(geom.Microns(r.Max.X)),
					ylo:     milp.Constant(geom.Microns(r.Min.Y)),
					yhi:     milp.Constant(geom.Microns(r.Max.Y)),
					isConst: true,
					warm:    r,
				})
			}
			continue
		}

		warm := m.Config.Fixed.Routed(ms.Name).Path.Bounds().Expand(m.Circuit.Tech.Clearance())
		for j := 0; j < sv.n-1; j++ {
			// Envelope variables for the segment extent along each axis.
			exlo := m.MILP.AddContinuous(fmt.Sprintf("env.%s.%d.xlo", ms.Name, j), 0, m.areaW)
			exhi := m.MILP.AddContinuous(fmt.Sprintf("env.%s.%d.xhi", ms.Name, j), 0, m.areaW)
			eylo := m.MILP.AddContinuous(fmt.Sprintf("env.%s.%d.ylo", ms.Name, j), 0, m.areaH)
			eyhi := m.MILP.AddContinuous(fmt.Sprintf("env.%s.%d.yhi", ms.Name, j), 0, m.areaH)
			for _, idx := range []int{j, j + 1} {
				m.MILP.AddLE(fmt.Sprintf("env.%s.%d.xlo.%d", ms.Name, j, idx), milp.Term(exlo, 1).Sub(sv.x[idx], 1), 0)
				m.MILP.AddGE(fmt.Sprintf("env.%s.%d.xhi.%d", ms.Name, j, idx), milp.Term(exhi, 1).Sub(sv.x[idx], 1), 0)
				m.MILP.AddLE(fmt.Sprintf("env.%s.%d.ylo.%d", ms.Name, j, idx), milp.Term(eylo, 1).Sub(sv.y[idx], 1), 0)
				m.MILP.AddGE(fmt.Sprintf("env.%s.%d.yhi.%d", ms.Name, j, idx), milp.Term(eyhi, 1).Sub(sv.y[idx], 1), 0)
			}

			// Expansion of the segment body: the clearance on every side plus
			// half the strip width across the segment axis. With free
			// topology the lateral direction is selected by the direction
			// binaries, which keeps the box exact instead of conservatively
			// square.
			half := sv.width / 2
			expandX := milp.Constant(m.clearance)
			expandY := milp.Constant(m.clearance)
			switch {
			case m.Config.Global:
				if sv.fixedDirs[j].Vertical() {
					expandX.AddConst(half)
				} else {
					expandY.AddConst(half)
				}
			default:
				s := sv.dirs[j]
				expandX.Add(s[geom.Up], half).Add(s[geom.Down], half)
				expandY.Add(s[geom.Left], half).Add(s[geom.Right], half)
			}
			out = append(out, box{
				shape: layout.Shape{Strip: ms, Seg: j, Segs: sv.n - 1},
				xlo:   milp.Term(exlo, 1).AddExpr(expandX, -1),
				xhi:   milp.Term(exhi, 1).AddExpr(expandX, 1),
				ylo:   milp.Term(eylo, 1).AddExpr(expandY, -1),
				yhi:   milp.Term(eyhi, 1).AddExpr(expandY, 1),
				warm:  warm,
			})
		}
	}
	return out
}
