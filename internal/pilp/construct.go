// Package pilp implements the progressive ILP-based RFIC layout generation
// flow of Section 5 of the paper. The flow runs three phases on top of the
// exact model in internal/ilpmodel:
//
//  1. planar routing — the paper blurs the devices here (Eq. 23); this flow
//     does not. It places the devices along the signal flow, pads on the
//     boundary, routes every strip with a planar L/Z shape, and then solves
//     one global LP over that layout: real device bodies and pins, pads
//     fixed where construction put them, soft lengths and penalized overlap
//     (Eq. 24–28), topology and relative positions frozen;
//  2. device visualization and overlap fixing — real device geometries and
//     pins enter the model, coordinates are confined to τd windows around the
//     phase-1 result, and every microstrip is driven to its exact equivalent
//     length by per-strip exact ILPs;
//  3. iterative layout refinement — chain points without bends are deleted,
//     chain points are inserted where a strip cannot reach its length or
//     escape an overlap, and neighbouring devices may move within τd; the
//     per-strip ILPs are re-solved until no violation remains or the
//     iteration budget is exhausted. Devices keep their constructed
//     orientation.
//
// GenerateCtx runs the phases after construction from one list (phases in
// flow.go): each entry is a step, the label of the snapshot it records and
// the format of the progress message it logs, so the flow can be inspected
// the way Figure 7 of the paper shows it, and cancellation is checked in one
// place. Phases 2 and 3 share one candidate pass: solveAll solves per-strip
// candidates concurrently against a frozen copy of the layout
// (solveCandidate), and each candidate's graft merges the strips and devices
// it freed into the evolving layout in a fixed order.
//
// Every MILP solve of a flow goes through one call site, which memoises its
// Result for the rest of the flow, keyed by the model's digest
// (milp.Model.Digest) and the node budget. The flow often rebuilds a model
// it has solved: a phase-2 strip whose frozen-base candidate does not merge
// starts its escalation at the same chain-point count on an unchanged
// neighbourhood, strips that share a junction build the same junction
// model, and two troubled strips between the same devices build the same
// phase-3 neighbourhood. The solver is deterministic, so a repeat skips the
// search; only the layout is extracted again, from the repeat's own model.
// Callers of one key wait for the first (single flight), so which one
// searches never depends on timing; cancelled results are never kept; the
// memo dies with the flow. Effort.Reused counts the answered repeats.
package pilp

import (
	"fmt"
	"sort"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// Construct builds the initial layout of phase 1: devices ordered along the
// signal flow, placed on a serpentine of rows with guaranteed spacing, pads
// snapped to the boundary, and every microstrip routed with a simple planar
// L/Z shape. Lengths are not yet matched; that is the job of the later
// phases.
func Construct(c *netlist.Circuit) (*layout.Layout, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	l := layout.New(c)
	chain, stubs := orderDevices(c)
	if err := placeChain(c, l, chain, stubs); err != nil {
		return nil, err
	}
	if err := routeAll(c, l); err != nil {
		return nil, err
	}
	return l, nil
}

// orderDevices splits the devices into a main signal chain (a path through
// the connectivity graph starting and ending at pads where possible) and
// stub devices hanging off chain nodes.
func orderDevices(c *netlist.Circuit) (chain []string, stubs map[string]string) {
	adj := map[string][]string{}
	for _, ms := range c.Microstrips {
		adj[ms.From.Device] = append(adj[ms.From.Device], ms.To.Device)
		adj[ms.To.Device] = append(adj[ms.To.Device], ms.From.Device)
	}
	for _, neigh := range adj {
		sort.Strings(neigh)
	}

	// Start from a pad when one exists, otherwise from the lexicographically
	// first device.
	start := ""
	for _, d := range c.Devices {
		if d.IsPad() {
			if start == "" || d.Name < start {
				start = d.Name
			}
		}
	}
	if start == "" && len(c.Devices) > 0 {
		names := make([]string, 0, len(c.Devices))
		for _, d := range c.Devices {
			names = append(names, d.Name)
		}
		sort.Strings(names)
		start = names[0]
	}

	// Longest simple path from the start by iterative deepening DFS (the
	// circuits are small trees or near-trees, so this is cheap).
	chain = longestPathFrom(start, adj)

	onChain := map[string]bool{}
	for _, n := range chain {
		onChain[n] = true
	}
	// Every remaining device becomes a stub anchored at its closest chain
	// neighbour (breadth-first from the chain).
	stubs = map[string]string{}
	anchor := map[string]string{}
	queue := append([]string(nil), chain...)
	for _, n := range chain {
		anchor[n] = n
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := anchor[nb]; seen {
				continue
			}
			anchor[nb] = anchor[cur]
			queue = append(queue, nb)
		}
	}
	unconnected := 0
	for _, d := range c.Devices {
		if onChain[d.Name] {
			continue
		}
		a, ok := anchor[d.Name]
		if !ok {
			// Device without any microstrip (bias/decoupling block): spread
			// these round-robin over the chain so they do not pile up.
			a = chain[unconnected%len(chain)]
			unconnected++
		}
		stubs[d.Name] = a
	}
	return chain, stubs
}

// longestPathFrom returns the longest simple path starting at start in the
// adjacency map, using DFS with backtracking (suitable for the small device
// graphs of RFIC netlists).
func longestPathFrom(start string, adj map[string][]string) []string {
	if start == "" {
		return nil
	}
	best := []string{start}
	visited := map[string]bool{start: true}
	var path []string
	path = append(path, start)
	var dfs func(cur string)
	dfs = func(cur string) {
		if len(path) > len(best) {
			best = append([]string(nil), path...)
		}
		if len(path) > 40 {
			return // depth guard; circuits of interest are far smaller
		}
		for _, nb := range adj[cur] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			path = append(path, nb)
			dfs(nb)
			path = path[:len(path)-1]
			visited[nb] = false
		}
	}
	dfs(start)
	return best
}

// placeChain places the chain devices on a serpentine of rows — spacing
// consecutive devices roughly by the target length of the microstrip between
// them so that most strips are nearly length-matched by construction — and
// the stub devices next to their anchors, then snaps pads to the boundary.
func placeChain(c *netlist.Circuit, l *layout.Layout, chain []string, stubs map[string]string) error {
	spacing := c.Tech.Spacing()
	margin := 3 * spacing
	usableW := c.AreaWidth - 2*margin
	if usableW <= 0 {
		usableW = c.AreaWidth
	}

	// chainGap returns the target length of a microstrip connecting two
	// consecutive chain devices (0 when they are not directly connected).
	chainGap := func(a, b string) geom.Coord {
		var best geom.Coord
		for _, ms := range c.Microstrips {
			if (ms.From.Device == a && ms.To.Device == b) || (ms.From.Device == b && ms.To.Device == a) {
				if ms.TargetLength > best {
					best = ms.TargetLength
				}
			}
		}
		return best
	}

	// Estimate the serpentine length: device widths plus connection targets.
	var total geom.Coord
	for i, name := range chain {
		d, err := c.Device(name)
		if err != nil {
			return err
		}
		total += d.Width
		if i+1 < len(chain) {
			gap := chainGap(name, chain[i+1])
			if gap == 0 {
				gap = 4 * spacing
			}
			total += gap
		}
	}
	rows := int((total + usableW - 1) / usableW)
	if rows < 1 {
		rows = 1
	}
	if rows > len(chain) {
		rows = len(chain)
	}
	rowPitch := c.AreaHeight / geom.Coord(rows+1)

	// Walk the serpentine, advancing by device widths and connection targets.
	row := 0
	leftToRight := true
	cursor := margin
	for i, name := range chain {
		d, err := c.Device(name)
		if err != nil {
			return err
		}
		w, _ := d.Dimensions(geom.R0)
		// Wrap to the next row when the device no longer fits.
		if cursor+w > c.AreaWidth-margin && row+1 < rows {
			row++
			leftToRight = !leftToRight
			cursor = margin
		}
		orient := geom.R0
		if !leftToRight {
			orient = geom.R180
		}
		y := rowPitch * geom.Coord(row+1)
		x := cursor + w/2
		if !leftToRight {
			x = c.AreaWidth - cursor - w/2
		}
		center := geom.Pt(x, y)
		if d.IsPad() {
			// Chain pads are the RF ports: put them on the left or right
			// boundary, whichever is nearer.
			if center.X <= c.AreaWidth/2 {
				center = geom.Pt(0, center.Y)
			} else {
				center = geom.Pt(c.AreaWidth, center.Y)
			}
			orient = geom.R0
		} else {
			center = clampDeviceCenter(c, d, orient, center)
		}
		if err := l.Place(name, center, orient); err != nil {
			return err
		}
		// Re-derive the cursor from the final centre so snapping and
		// clamping do not accumulate placement drift.
		if leftToRight {
			cursor = center.X + w/2
		} else {
			cursor = c.AreaWidth - center.X + w/2
		}
		if i+1 < len(chain) {
			gap := chainGap(name, chain[i+1])
			if gap == 0 {
				gap = 4 * spacing
			}
			// Leave roughly 40% of the target length as slack for the exact
			// length-matching detours of the later phases (pins that end up
			// farther apart than the target can never be fixed, pins that
			// are closer always can, given corridor space).
			gap = gap * 3 / 5
			if gap < 2*spacing {
				gap = 2 * spacing
			}
			cursor += gap
		}
	}

	// Stub devices: above or below their anchors, alternating to spread the
	// congestion; devices sharing an anchor and side are shifted sideways so
	// they do not overlap. Stub pads snap to the closest horizontal boundary.
	flip := false
	perSlot := map[string]geom.Coord{}
	stubNames := make([]string, 0, len(stubs))
	for name := range stubs {
		stubNames = append(stubNames, name)
	}
	sort.Strings(stubNames)
	for _, name := range stubNames {
		anchorName := stubs[name]
		d, err := c.Device(name)
		if err != nil {
			return err
		}
		apd := l.Placed(anchorName)
		if apd == nil {
			return fmt.Errorf("pilp: stub %q has unplaced anchor %q", name, anchorName)
		}
		anchorHalf := apd.BodyRect().Height() / 2
		offset := anchorHalf + d.Height/2 + 3*spacing + margin
		up := !flip
		flip = !flip
		slotKey := anchorName
		if up {
			slotKey += "+"
		} else {
			slotKey += "-"
		}
		sideShift := perSlot[slotKey]
		perSlot[slotKey] += d.Width + 2*spacing
		center := geom.Pt(apd.Center.X+sideShift, apd.Center.Y+offset)
		if !up {
			center = geom.Pt(apd.Center.X+sideShift, apd.Center.Y-offset)
		}
		orient := geom.R0
		if d.IsPad() {
			// Stub pads go to the nearest top/bottom boundary above/below
			// the anchor.
			if up {
				center = geom.Pt(apd.Center.X, c.AreaHeight)
			} else {
				center = geom.Pt(apd.Center.X, 0)
			}
		} else {
			center = clampDeviceCenter(c, d, orient, center)
		}
		if err := l.Place(name, center, orient); err != nil {
			return err
		}
	}
	return nil
}

// clampDeviceCenter keeps a device body inside the layout area.
func clampDeviceCenter(c *netlist.Circuit, d *netlist.Device, o geom.Orientation, center geom.Point) geom.Point {
	w, h := d.Dimensions(o)
	x := geom.ClampCoord(center.X, w/2, c.AreaWidth-w/2)
	y := geom.ClampCoord(center.Y, h/2, c.AreaHeight-h/2)
	return geom.Pt(x, y)
}

// routeAll gives every microstrip a simple planar initial route: straight
// where the pins are aligned, otherwise an L or Z shape chosen to avoid
// crossing device bodies and previously routed strips where possible.
func routeAll(c *netlist.Circuit, l *layout.Layout) error {
	// Route shorter connections first: they have fewer detour options. Equal
	// lengths tie-break on the name so the routing order — and with it the
	// layout — never depends on declaration order or sort stability.
	strips := append([]*netlist.Microstrip(nil), c.Microstrips...)
	sort.Slice(strips, func(i, j int) bool {
		if strips[i].TargetLength != strips[j].TargetLength {
			return strips[i].TargetLength < strips[j].TargetLength
		}
		return strips[i].Name < strips[j].Name
	})
	for _, ms := range strips {
		from, err := l.PinPosition(ms.From)
		if err != nil {
			return err
		}
		to, err := l.PinPosition(ms.To)
		if err != nil {
			return err
		}
		candidates := candidateRoutes(from, to)
		best := candidates[0]
		bestScore := routeScore(c, l, ms, best)
		for _, cand := range candidates[1:] {
			if s := routeScore(c, l, ms, cand); s < bestScore {
				best, bestScore = cand, s
			}
		}
		if err := l.Route(ms.Name, best...); err != nil {
			return err
		}
	}
	return nil
}

// candidateRoutes enumerates simple rectilinear routes between two points:
// straight, the two L shapes, and two Z shapes through the midpoint.
func candidateRoutes(a, b geom.Point) [][]geom.Point {
	if a.X == b.X || a.Y == b.Y {
		return [][]geom.Point{{a, b}}
	}
	midX := (a.X + b.X) / 2
	midY := (a.Y + b.Y) / 2
	return [][]geom.Point{
		{a, geom.Pt(b.X, a.Y), b},                      // horizontal then vertical
		{a, geom.Pt(a.X, b.Y), b},                      // vertical then horizontal
		{a, geom.Pt(midX, a.Y), geom.Pt(midX, b.Y), b}, // Z through the x midpoint
		{a, geom.Pt(a.X, midY), geom.Pt(b.X, midY), b}, // Z through the y midpoint
	}
}

// routeScore counts how many planarity problems a candidate route would
// introduce: crossings with existing routes and overlaps with device bodies
// it does not terminate on. Lower is better; bends break ties.
func routeScore(c *netlist.Circuit, l *layout.Layout, ms *netlist.Microstrip, pts []geom.Point) int {
	width := c.Tech.StripWidth(ms.Width)
	pl := geom.Polyline{Points: pts, Width: width}
	segs := pl.Segments()
	score := 0
	for _, rs := range l.RoutedStrips() {
		for _, other := range rs.Path.Segments() {
			for _, seg := range segs {
				if geom.SegmentsIntersect(seg, other) {
					score += 10
				}
			}
		}
	}
	for _, pd := range l.PlacedDevices() {
		if pd.Device.Name == ms.From.Device || pd.Device.Name == ms.To.Device {
			continue
		}
		body := pd.BodyRect().Expand(c.Tech.Clearance())
		for _, seg := range segs {
			if body.Overlaps(seg.Rect()) {
				score += 10
			}
		}
	}
	return score + pl.Bends()
}
