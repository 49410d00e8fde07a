package layout

import (
	"fmt"

	"rficlayout/internal/geom"
)

// Metrics summarizes the layout-quality figures the paper reports in Table 1
// (maximum and total bend numbers) plus the length-matching and area figures
// the evaluation discusses.
type Metrics struct {
	// MaxBends is the largest bend count on any single microstrip.
	MaxBends int
	// TotalBends is the sum of bend counts over all microstrips.
	TotalBends int
	// MaxLengthError is the largest |equivalent − target| length over all
	// routed microstrips, in nanometres.
	MaxLengthError geom.Coord
	// TotalLengthError is the sum of |equivalent − target| over all routed
	// microstrips, in nanometres.
	TotalLengthError geom.Coord
	// RoutedStrips and PlacedDevices count how much of the circuit is laid
	// out.
	RoutedStrips  int
	PlacedDevices int
	// AreaWidth/AreaHeight echo the layout area of the circuit.
	AreaWidth  geom.Coord
	AreaHeight geom.Coord
	// UsedBounds is the bounding box actually occupied.
	UsedBounds geom.Rect
}

// Metrics computes the quality metrics of the layout.
func (l *Layout) Metrics() Metrics {
	m := Metrics{
		AreaWidth:     l.Circuit.AreaWidth,
		AreaHeight:    l.Circuit.AreaHeight,
		PlacedDevices: len(l.devices),
		RoutedStrips:  len(l.strips),
		UsedBounds:    l.UsedBounds(),
	}
	delta := l.Circuit.Tech.BendCompensation
	for _, rs := range l.RoutedStrips() {
		b := rs.Bends()
		if b > m.MaxBends {
			m.MaxBends = b
		}
		m.TotalBends += b
		e := geom.AbsCoord(rs.LengthError(delta))
		if e > m.MaxLengthError {
			m.MaxLengthError = e
		}
		m.TotalLengthError += e
	}
	return m
}

// String implements fmt.Stringer with the Table 1 style figures.
func (m Metrics) String() string {
	return fmt.Sprintf("area %.0fµm×%.0fµm, max bends %d, total bends %d, max |Δl| %.2fµm, total |Δl| %.2fµm, %d strips / %d devices",
		geom.Microns(m.AreaWidth), geom.Microns(m.AreaHeight),
		m.MaxBends, m.TotalBends,
		geom.Microns(m.MaxLengthError), geom.Microns(m.TotalLengthError),
		m.RoutedStrips, m.PlacedDevices)
}
