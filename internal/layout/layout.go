// Package layout holds the output side of the RFIC layout problem: placed
// devices, routed microstrips described by their chain points, design-rule
// checking against the spacing / non-crossing / boundary / exact-length
// requirements of the paper, bend counting and smoothing, quality metrics and
// SVG / text export. It owns the spacing rule: SpacingExempt decides which
// pairs of shapes the rule skips, for the design-rule check here and for the
// non-overlap constraints of the layout MILP in internal/ilpmodel.
package layout

import (
	"fmt"
	"sort"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
)

// PlacedDevice is a device with a fixed centre position and orientation.
type PlacedDevice struct {
	Device *netlist.Device
	Center geom.Point
	Orient geom.Orientation
}

// BodyRect returns the device body rectangle at its placed position.
func (pd *PlacedDevice) BodyRect() geom.Rect {
	return pd.Device.BodyRect(pd.Center, pd.Orient)
}

// PinPosition returns the absolute position of the named pin.
func (pd *PlacedDevice) PinPosition(pin string) (geom.Point, error) {
	off, err := pd.Device.PinOffset(pin, pd.Orient)
	if err != nil {
		return geom.Point{}, err
	}
	return pd.Center.Add(off), nil
}

// RoutedStrip is a microstrip with its chain-point path. The path includes
// both end points (which must coincide with the connected pins) and every
// intermediate chain point.
type RoutedStrip struct {
	Strip *netlist.Microstrip
	Path  geom.Polyline
}

// GeometricLength returns the Manhattan length of the routed centreline
// (l_g,i of Eq. 7).
func (rs *RoutedStrip) GeometricLength() geom.Coord { return rs.Path.Length() }

// Bends returns the number of real 90° bends along the route (n_b,i of
// Eq. 11).
func (rs *RoutedStrip) Bends() int { return rs.Path.Bends() }

// EquivalentLength returns the electrical length after bend smoothing:
// geometric length plus the per-bend compensation δ (Eq. 12).
func (rs *RoutedStrip) EquivalentLength(delta geom.Coord) geom.Coord {
	return rs.GeometricLength() + geom.Coord(rs.Bends())*delta
}

// LengthError returns the signed difference between the equivalent length and
// the target length of the microstrip.
func (rs *RoutedStrip) LengthError(delta geom.Coord) geom.Coord {
	return rs.EquivalentLength(delta) - rs.Strip.TargetLength
}

// Layout is a (possibly partial) solution of the layout problem for one
// circuit.
type Layout struct {
	Circuit *netlist.Circuit
	devices map[string]*PlacedDevice
	strips  map[string]*RoutedStrip
}

// New creates an empty layout for the circuit.
func New(c *netlist.Circuit) *Layout {
	return &Layout{
		Circuit: c,
		devices: map[string]*PlacedDevice{},
		strips:  map[string]*RoutedStrip{},
	}
}

// Clone returns a deep copy of the layout (device placements and strip paths
// are copied; the underlying circuit is shared).
func (l *Layout) Clone() *Layout {
	out := New(l.Circuit)
	for name, pd := range l.devices {
		cp := *pd
		out.devices[name] = &cp
	}
	for name, rs := range l.strips {
		pts := make([]geom.Point, len(rs.Path.Points))
		copy(pts, rs.Path.Points)
		out.strips[name] = &RoutedStrip{Strip: rs.Strip, Path: geom.Polyline{Points: pts, Width: rs.Path.Width}}
	}
	return out
}

// Place positions a device centre with the given orientation.
func (l *Layout) Place(deviceName string, center geom.Point, orient geom.Orientation) error {
	d, err := l.Circuit.Device(deviceName)
	if err != nil {
		return err
	}
	l.devices[deviceName] = &PlacedDevice{Device: d, Center: center, Orient: orient.Normalize()}
	return nil
}

// Route sets the chain-point path of a microstrip. The path legs must be
// axis-parallel; the strip width defaults to the technology width when the
// microstrip does not carry its own.
func (l *Layout) Route(stripName string, points ...geom.Point) error {
	ms, err := l.Circuit.Microstrip(stripName)
	if err != nil {
		return err
	}
	if len(points) < 2 {
		return fmt.Errorf("layout: route of %q needs at least two points", stripName)
	}
	width := l.Circuit.Tech.StripWidth(ms.Width)
	pl, err := geom.NewPolyline(width, points...)
	if err != nil {
		return fmt.Errorf("layout: route of %q: %w", stripName, err)
	}
	l.strips[stripName] = &RoutedStrip{Strip: ms, Path: pl}
	return nil
}

// Placed returns the placement of the named device, or nil when it has not
// been placed yet.
func (l *Layout) Placed(deviceName string) *PlacedDevice { return l.devices[deviceName] }

// Routed returns the route of the named microstrip, or nil when it has not
// been routed yet.
func (l *Layout) Routed(stripName string) *RoutedStrip { return l.strips[stripName] }

// PlacedDevices returns all placements sorted by device name.
func (l *Layout) PlacedDevices() []*PlacedDevice {
	out := make([]*PlacedDevice, 0, len(l.devices))
	for _, pd := range l.devices {
		out = append(out, pd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device.Name < out[j].Device.Name })
	return out
}

// RoutedStrips returns all routed microstrips sorted by name.
func (l *Layout) RoutedStrips() []*RoutedStrip {
	out := make([]*RoutedStrip, 0, len(l.strips))
	for _, rs := range l.strips {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Strip.Name < out[j].Strip.Name })
	return out
}

// Complete reports whether every device is placed and every microstrip
// routed.
func (l *Layout) Complete() bool {
	return len(l.devices) == len(l.Circuit.Devices) && len(l.strips) == len(l.Circuit.Microstrips)
}

// PinPosition resolves the absolute position of a terminal, failing when the
// device is not placed.
func (l *Layout) PinPosition(t netlist.Terminal) (geom.Point, error) {
	pd := l.Placed(t.Device)
	if pd == nil {
		return geom.Point{}, fmt.Errorf("layout: device %q is not placed", t.Device)
	}
	return pd.PinPosition(t.Pin)
}

// UsedBounds returns the bounding box of all placed devices and routed
// strips. It returns the empty rectangle at the origin when nothing is placed.
func (l *Layout) UsedBounds() geom.Rect {
	first := true
	var out geom.Rect
	add := func(r geom.Rect) {
		if first {
			out = r
			first = false
			return
		}
		out = out.Union(r)
	}
	for _, pd := range l.PlacedDevices() {
		add(pd.BodyRect())
	}
	for _, rs := range l.RoutedStrips() {
		if len(rs.Path.Points) > 0 {
			add(rs.Path.Bounds())
		}
	}
	return out
}
