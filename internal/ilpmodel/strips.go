package ilpmodel

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// buildStrips creates the chain-point, direction, length and bend variables
// of every microstrip (Sections 4.1 and 4.2).
func (m *Model) buildStrips() error {
	for _, ms := range m.Circuit.Microstrips {
		sv := &stripVars{
			ms:    ms,
			free:  m.Config.stripFree(ms.Name),
			width: geom.Microns(m.Circuit.Tech.StripWidth(ms.Width)),
		}
		sv.target = geom.Microns(ms.TargetLength)
		if m.Config.Blurred {
			// Eq. 23: the blurred strip absorbs the centre-to-pin runs of its
			// two terminal devices.
			sv.target += m.pinReach(ms.From) + m.pinReach(ms.To)
		}

		if !sv.free {
			rs := m.Config.Fixed.Routed(ms.Name)
			if rs == nil {
				return fmt.Errorf("ilpmodel: microstrip %q is fixed but has no route in the Fixed layout", ms.Name)
			}
			sv.fixedPts = rs.Path.Points
			sv.n = len(sv.fixedPts)
			sv.fixedBends = rs.Path.Bends()
			sv.nbExpr = milp.Constant(float64(sv.fixedBends))
			m.strips[ms.Name] = sv
			continue
		}

		sv.n = m.Config.chainPoints(ms.Name)
		if err := m.buildFreeStrip(sv); err != nil {
			return err
		}
		m.strips[ms.Name] = sv
	}
	return nil
}

// pinReach returns the centre-to-pin Manhattan distance of a terminal's
// device, which is the length increase L_s/L_e a blurred strip absorbs
// (Figure 8). Unknown devices or pins contribute zero; the circuit has been
// validated beforehand, so that only happens in malformed test fixtures.
func (m *Model) pinReach(t netlist.Terminal) float64 {
	d, err := m.Circuit.Device(t.Device)
	if err != nil {
		return 0
	}
	pin, err := d.Pin(t.Pin)
	if err != nil {
		return 0
	}
	return geom.Microns(geom.AbsCoord(pin.Offset.X) + geom.AbsCoord(pin.Offset.Y))
}

// buildFreeStrip creates the variables and constraints of one microstrip
// whose geometry the solver may change.
func (m *Model) buildFreeStrip(sv *stripVars) error {
	mdl := m.MILP
	name := sv.ms.Name
	n := sv.n
	segs := n - 1

	// Chain point coordinates, optionally confined around the warm start.
	sv.x = make([]milp.Var, n)
	sv.y = make([]milp.Var, n)
	var warm []geom.Point
	if m.Config.Fixed != nil {
		if rs := m.Config.Fixed.Routed(name); rs != nil {
			warm = rs.Path.Points
		}
	}
	for j := 0; j < n; j++ {
		loX, hiX := 0.0, m.areaW
		loY, hiY := 0.0, m.areaH
		if m.Config.Confinement > 0 && len(warm) == n {
			tau := geom.Microns(m.Config.Confinement)
			wx, wy := geom.Microns(warm[j].X), geom.Microns(warm[j].Y)
			loX, hiX = maxf(loX, wx-tau), minf(hiX, wx+tau)
			loY, hiY = maxf(loY, wy-tau), minf(hiY, wy+tau)
			if loX > hiX || loY > hiY {
				return fmt.Errorf("ilpmodel: chain point %d of %q has an empty confinement window", j, name)
			}
		}
		sv.x[j] = mdl.AddContinuous(fmt.Sprintf("cp.%s.%d.x", name, j), loX, hiX)
		sv.y[j] = mdl.AddContinuous(fmt.Sprintf("cp.%s.%d.y", name, j), loY, hiY)
	}

	// Topology handling.
	sv.topologyFixed = m.Config.FixTopology
	if sv.topologyFixed {
		if len(warm) != n {
			return fmt.Errorf("ilpmodel: FixTopology needs a warm route with %d points for %q, got %d", n, name, len(warm))
		}
		sv.fixedDirs = warmDirections(warm)
		sv.fixedBends = geom.Polyline{Points: warm, Width: 1}.Bends()
	}

	// Per-segment length variables. Each segment contributes four
	// non-negative movement components (right, left, up, down); the direction
	// selection forces all but one of them to zero, which is an equivalent
	// linearization of Eq. 6.
	sv.segLen = make([]milp.Var, segs)
	if !sv.topologyFixed {
		sv.dirs = make([][4]milp.Var, segs)
	}
	maxLen := m.areaW + m.areaH
	for j := 0; j < segs; j++ {
		dxp := mdl.AddContinuous(fmt.Sprintf("seg.%s.%d.dxp", name, j), 0, m.areaW)
		dxn := mdl.AddContinuous(fmt.Sprintf("seg.%s.%d.dxn", name, j), 0, m.areaW)
		dyp := mdl.AddContinuous(fmt.Sprintf("seg.%s.%d.dyp", name, j), 0, m.areaH)
		dyn := mdl.AddContinuous(fmt.Sprintf("seg.%s.%d.dyn", name, j), 0, m.areaH)

		// Coordinate propagation along the strip.
		mdl.AddEQ(fmt.Sprintf("seg.%s.%d.dx", name, j),
			milp.Term(sv.x[j+1], 1).Sub(sv.x[j], 1).Add(dxp, -1).Add(dxn, 1), 0)
		mdl.AddEQ(fmt.Sprintf("seg.%s.%d.dy", name, j),
			milp.Term(sv.y[j+1], 1).Sub(sv.y[j], 1).Add(dyp, -1).Add(dyn, 1), 0)

		if sv.topologyFixed {
			// Only the component along the fixed direction may be non-zero.
			allowed := sv.fixedDirs[j]
			for dir, v := range map[geom.Direction]milp.Var{
				geom.Right: dxp, geom.Left: dxn, geom.Up: dyp, geom.Down: dyn,
			} {
				if dir != allowed {
					mdl.SetBounds(v, 0, 0)
				}
			}
		} else {
			// Direction selection binaries s^u, s^d, s^l, s^r (Eq. 1) with
			// movement components tied to them.
			var s [4]milp.Var
			s[geom.Up] = mdl.AddBinary(fmt.Sprintf("dir.%s.%d.up", name, j))
			s[geom.Down] = mdl.AddBinary(fmt.Sprintf("dir.%s.%d.down", name, j))
			s[geom.Left] = mdl.AddBinary(fmt.Sprintf("dir.%s.%d.left", name, j))
			s[geom.Right] = mdl.AddBinary(fmt.Sprintf("dir.%s.%d.right", name, j))
			sv.dirs[j] = s
			mdl.AddEQ(fmt.Sprintf("dir.%s.%d.one", name, j),
				milp.Term(s[geom.Up], 1).Add(s[geom.Down], 1).Add(s[geom.Left], 1).Add(s[geom.Right], 1), 1)
			// Movement only along the selected direction.
			mdl.AddLE(fmt.Sprintf("dir.%s.%d.dxp", name, j), milp.Term(dxp, 1).Add(s[geom.Right], -m.areaW), 0)
			mdl.AddLE(fmt.Sprintf("dir.%s.%d.dxn", name, j), milp.Term(dxn, 1).Add(s[geom.Left], -m.areaW), 0)
			mdl.AddLE(fmt.Sprintf("dir.%s.%d.dyp", name, j), milp.Term(dyp, 1).Add(s[geom.Up], -m.areaH), 0)
			mdl.AddLE(fmt.Sprintf("dir.%s.%d.dyn", name, j), milp.Term(dyn, 1).Add(s[geom.Down], -m.areaH), 0)
			if j > 0 {
				// Eq. 2–5: the next segment must not reverse the previous one.
				prev := sv.dirs[j-1]
				for _, pair := range [][2]geom.Direction{
					{geom.Up, geom.Down}, {geom.Down, geom.Up}, {geom.Left, geom.Right}, {geom.Right, geom.Left},
				} {
					mdl.AddLE(fmt.Sprintf("dir.%s.%d.norev.%v", name, j, pair[0]),
						milp.Term(prev[pair[0]], 1).Add(s[pair[1]], 1), 1)
				}
			}
		}

		sv.segLen[j] = mdl.AddContinuous(fmt.Sprintf("seg.%s.%d.len", name, j), 0, maxLen)
		mdl.AddEQ(fmt.Sprintf("seg.%s.%d.lendef", name, j),
			milp.Term(sv.segLen[j], 1).Add(dxp, -1).Add(dxn, -1).Add(dyp, -1).Add(dyn, -1), 0)
	}

	// Bend detection (Eq. 8–11).
	sv.nbExpr = milp.NewExpr()
	if sv.topologyFixed {
		sv.nbExpr.AddConst(float64(sv.fixedBends))
	} else {
		sv.bendT = make([]milp.Var, 0, segs-1)
		for j := 1; j < segs; j++ {
			prev := sv.dirs[j-1]
			cur := sv.dirs[j]
			thv := mdl.AddBinary(fmt.Sprintf("bend.%s.%d.thv", name, j))
			uhv := mdl.AddBinary(fmt.Sprintf("bend.%s.%d.uhv", name, j))
			tvh := mdl.AddBinary(fmt.Sprintf("bend.%s.%d.tvh", name, j))
			uvh := mdl.AddBinary(fmt.Sprintf("bend.%s.%d.uvh", name, j))
			t := mdl.AddBinary(fmt.Sprintf("bend.%s.%d.t", name, j))
			// Eq. 8: horizontal → vertical bend.
			mdl.AddEQ(fmt.Sprintf("bend.%s.%d.hv", name, j),
				milp.Term(prev[geom.Right], 1).Add(prev[geom.Left], 1).
					Add(cur[geom.Up], 1).Add(cur[geom.Down], 1).
					Add(thv, -2).Add(uhv, -1), 0)
			// Eq. 9: vertical → horizontal bend.
			mdl.AddEQ(fmt.Sprintf("bend.%s.%d.vh", name, j),
				milp.Term(prev[geom.Up], 1).Add(prev[geom.Down], 1).
					Add(cur[geom.Right], 1).Add(cur[geom.Left], 1).
					Add(tvh, -2).Add(uvh, -1), 0)
			// Eq. 10: t = t_hv + t_vh (≤ 1 via binariness of t).
			mdl.AddEQ(fmt.Sprintf("bend.%s.%d.sum", name, j),
				milp.Term(t, 1).Add(thv, -1).Add(tvh, -1), 0)
			sv.bendT = append(sv.bendT, t)
			sv.nbExpr.Add(t, 1)
		}
	}

	// Length accounting (Eq. 7 and 12).
	sv.lengthExpr = milp.NewExpr()
	for j := 0; j < segs; j++ {
		sv.lengthExpr.Add(sv.segLen[j], 1)
	}
	sv.lengthExpr.AddExpr(sv.nbExpr, m.delta)

	if m.Config.SoftLength {
		// Eq. 24: lu ≥ |target − leq|.
		diff := sv.lengthExpr.Clone().AddConst(-sv.target)
		sv.lu = mdl.AbsEnvelope(fmt.Sprintf("lu.%s", name), diff, m.areaW+m.areaH)
	} else {
		// Eq. 13: exact equivalent length.
		mdl.AddEQ(fmt.Sprintf("len.%s.exact", name), sv.lengthExpr.Clone(), sv.target)
	}
	return nil
}

// warmDirections maps an n-point warm route to n−1 segment directions,
// inheriting the previous (or next) direction across zero-length legs.
func warmDirections(pts []geom.Point) []geom.Direction {
	segs := len(pts) - 1
	dirs := make([]geom.Direction, segs)
	known := make([]bool, segs)
	for j := 0; j < segs; j++ {
		if d, ok := geom.DirectionBetween(pts[j], pts[j+1]); ok {
			dirs[j] = d
			known[j] = true
		}
	}
	// Forward fill then backward fill for zero-length legs.
	last := geom.Right
	haveLast := false
	for j := 0; j < segs; j++ {
		if known[j] {
			last = dirs[j]
			haveLast = true
		} else if haveLast {
			dirs[j] = last
			known[j] = true
		}
	}
	next := geom.Right
	haveNext := false
	for j := segs - 1; j >= 0; j-- {
		if known[j] {
			next = dirs[j]
			haveNext = true
		} else if haveNext {
			dirs[j] = next
			known[j] = true
		} else {
			dirs[j] = geom.Right
		}
	}
	return dirs
}

// buildConnections binds route endpoints to device pins (Eq. 14) or, in
// blurred mode, to device centres.
func (m *Model) buildConnections() error {
	// Declaration order, not map order: constraint order must be a pure
	// function of the circuit (see buildObjective).
	for _, ms := range m.Circuit.Microstrips {
		sv := m.strips[ms.Name]
		if !sv.free {
			continue
		}
		type end struct {
			device string
			pin    string
			index  int
		}
		for _, e := range []end{
			{sv.ms.From.Device, sv.ms.From.Pin, 0},
			{sv.ms.To.Device, sv.ms.To.Pin, sv.n - 1},
		} {
			dv := m.devices[e.device]
			if dv == nil {
				return fmt.Errorf("ilpmodel: microstrip %q references unknown device %q", sv.ms.Name, e.device)
			}
			var px, py *milp.Expr
			var err error
			if m.Config.Blurred {
				px, py = m.centerExpr(dv)
			} else {
				px, py, err = m.pinExpr(dv, e.pin)
				if err != nil {
					return err
				}
			}
			cname := fmt.Sprintf("pin.%s.%d", sv.ms.Name, e.index)
			m.MILP.AddEQ(cname+".x", milp.Term(sv.x[e.index], 1).AddExpr(px, -1), 0)
			m.MILP.AddEQ(cname+".y", milp.Term(sv.y[e.index], 1).AddExpr(py, -1), 0)
		}
	}
	return nil
}
