package ilpmodel

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// Model is the built MILP for one layout (sub)problem together with the
// bookkeeping needed to extract a layout from a solution vector. All model
// coordinates are micrometres (float64); extraction rounds to nanometres.
type Model struct {
	Circuit *netlist.Circuit
	Config  Config
	MILP    *milp.Model

	areaW, areaH float64 // layout area in µm
	bigM         float64
	clearance    float64 // spacing/2 in µm
	delta        float64 // bend compensation δ in µm

	devices map[string]*deviceVars
	strips  map[string]*stripVars

	overlapPairs int // number of non-overlap pairs actually constrained
}

// deviceVars holds per-device variables or fixed values.
type deviceVars struct {
	dev    *netlist.Device
	free   bool
	orient geom.Orientation

	x, y milp.Var // centre coordinates (free devices)

	fixedCenter geom.Point // used when !free
}

// stripVars holds per-microstrip variables or fixed values.
type stripVars struct {
	ms    *netlist.Microstrip
	free  bool
	n     int     // number of chain points
	width float64 // strip width in µm

	x, y []milp.Var // chain point coordinates (free strips)

	fixedPts []geom.Point // used when !free

	fixedDirs []geom.Direction // per segment (Global form)

	dirs   [][4]milp.Var // per segment: Up, Down, Left, Right (exact form)
	segLen []milp.Var    // per segment length

	lu     milp.Var // unmatched length bound (Global form)
	nbExpr *milp.Expr
}

// Build constructs the MILP for the circuit under the given configuration.
func Build(ckt *netlist.Circuit, cfg Config) (*Model, error) {
	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(ckt); err != nil {
		return nil, err
	}
	m := &Model{
		Circuit:   ckt,
		Config:    cfg,
		MILP:      milp.NewModel(),
		areaW:     geom.Microns(ckt.AreaWidth),
		areaH:     geom.Microns(ckt.AreaHeight),
		clearance: geom.Microns(ckt.Tech.Clearance()),
		delta:     geom.Microns(ckt.Tech.BendCompensation),
		devices:   map[string]*deviceVars{},
		strips:    map[string]*stripVars{},
	}
	m.bigM = m.areaW + m.areaH + 200

	if err := m.buildDevices(); err != nil {
		return nil, err
	}
	if err := m.buildStrips(); err != nil {
		return nil, err
	}
	if err := m.buildConnections(); err != nil {
		return nil, err
	}
	m.buildOverlap()
	m.buildObjective()
	return m, nil
}

// Stats describes the built model size.
func (m *Model) Stats() string {
	return fmt.Sprintf("%s; %d non-overlap pairs", m.MILP.Stats(), m.overlapPairs)
}

// buildDevices creates placement variables for free devices and records
// fixed positions for the rest. Every device takes its orientation from
// Fixed; the model never rotates a device.
func (m *Model) buildDevices() error {
	for _, d := range m.Circuit.Devices {
		pd := m.Config.Fixed.Placed(d.Name)
		dv := &deviceVars{
			dev:    d,
			orient: pd.Orient,
			free:   m.Config.deviceFree(d.Name),
		}
		m.devices[d.Name] = dv
		if !dv.free {
			dv.fixedCenter = pd.Center
			continue
		}

		w, h := d.Dimensions(dv.orient)
		halfW := geom.Microns(w) / 2
		halfH := geom.Microns(h) / 2
		loX, hiX := halfW, m.areaW-halfW
		loY, hiY := halfH, m.areaH-halfH
		if m.Config.Confinement > 0 {
			tau := geom.Microns(m.Config.Confinement)
			cx, cy := geom.Microns(pd.Center.X), geom.Microns(pd.Center.Y)
			loX, hiX = maxf(loX, cx-tau), minf(hiX, cx+tau)
			loY, hiY = maxf(loY, cy-tau), minf(hiY, cy+tau)
		}
		if loX > hiX || loY > hiY {
			return fmt.Errorf("ilpmodel: device %q has an empty feasible window", d.Name)
		}
		dv.x = m.MILP.AddContinuous("dev."+d.Name+".x", loX, hiX)
		dv.y = m.MILP.AddContinuous("dev."+d.Name+".y", loY, hiY)
	}
	return nil
}

// centerExpr returns linear expressions for the device centre coordinates
// (variables or constants).
func (m *Model) centerExpr(dv *deviceVars) (x, y *milp.Expr) {
	if dv.free {
		return milp.Term(dv.x, 1), milp.Term(dv.y, 1)
	}
	return milp.Constant(geom.Microns(dv.fixedCenter.X)), milp.Constant(geom.Microns(dv.fixedCenter.Y))
}

// pinExpr returns linear expressions for the absolute position of a device
// pin, honouring the device orientation.
func (m *Model) pinExpr(dv *deviceVars, pin string) (x, y *milp.Expr, err error) {
	off, err := dv.dev.PinOffset(pin, dv.orient)
	if err != nil {
		return nil, nil, err
	}
	cx, cy := m.centerExpr(dv)
	return cx.AddConst(geom.Microns(off.X)), cy.AddConst(geom.Microns(off.Y)), nil
}

// buildObjective assembles Eq. 21 (exact form) or Eq. 26 (Global form, with
// unmatched-length and overlap penalties added by the other build steps).
func (m *Model) buildObjective() {
	// Iterate strips in circuit declaration order, never map order: the
	// envelope-constraint order shapes the simplex pivot sequence, and on a
	// degenerate optimum a different pivot sequence lands on a different
	// vertex — the model must be a pure function of the circuit and config
	// for the flow's determinism contract (and the result cache) to hold.
	var nbExprs []*milp.Expr
	for _, ms := range m.Circuit.Microstrips {
		sv := m.strips[ms.Name]
		nbExprs = append(nbExprs, sv.nbExpr)
		// β · Σ n_b,i
		m.MILP.AddObjectiveExpr(sv.nbExpr, weightBeta)
	}
	nbMax := m.MILP.MaxEnvelope("nb.max", 1e6, nbExprs...)
	m.MILP.SetObjectiveCoef(nbMax, weightAlpha)

	if m.Config.Global {
		var luExprs []*milp.Expr
		for _, ms := range m.Circuit.Microstrips {
			sv := m.strips[ms.Name]
			if sv.free {
				luExprs = append(luExprs, milp.Term(sv.lu, 1))
				m.MILP.AddObjectiveCoef(sv.lu, weightZeta)
			}
		}
		if len(luExprs) > 0 {
			luMax := m.MILP.MaxEnvelope("lu.max", 1e9, luExprs...)
			m.MILP.SetObjectiveCoef(luMax, weightGamma)
		}
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
