package layout

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
)

// The layout file format is a line-oriented companion to the circuit format:
//
//	layout <circuit-name>
//	place M1 120.5 80 R90
//	route TL1 60 0 60 45.5 130 45.5
//
// Coordinates are micrometres. Routes list chain points in order.

// Format renders a layout in the text format accepted by ParseLayout.
func Format(l *Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout %s\n", l.Circuit.Name)
	for _, pd := range l.PlacedDevices() {
		fmt.Fprintf(&b, "place %s %s %s %s\n",
			pd.Device.Name, um(pd.Center.X), um(pd.Center.Y), pd.Orient)
	}
	for _, rs := range l.RoutedStrips() {
		fmt.Fprintf(&b, "route %s", rs.Strip.Name)
		for _, p := range rs.Path.Points {
			fmt.Fprintf(&b, " %s %s", um(p.X), um(p.Y))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseLayout reads a layout file and binds it to the given circuit.
func ParseLayout(r io.Reader, c *netlist.Circuit) (*Layout, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	l := New(c)
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "layout":
			if len(fields) != 2 {
				return nil, fmt.Errorf("layout: line %d: 'layout' needs the circuit name", lineNo)
			}
			if fields[1] != c.Name {
				return nil, fmt.Errorf("layout: line %d: layout is for circuit %q, not %q", lineNo, fields[1], c.Name)
			}
			sawHeader = true
		case "place":
			if len(fields) != 5 {
				return nil, fmt.Errorf("layout: line %d: 'place' needs device, x, y, orientation", lineNo)
			}
			x, err1 := parseUm(fields[2])
			y, err2 := parseUm(fields[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("layout: line %d: invalid placement coordinates", lineNo)
			}
			o, err := parseOrientation(fields[4])
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: %v", lineNo, err)
			}
			if err := l.Place(fields[1], geom.Pt(x, y), o); err != nil {
				return nil, fmt.Errorf("layout: line %d: %v", lineNo, err)
			}
		case "route":
			if len(fields) < 6 || len(fields)%2 != 0 {
				return nil, fmt.Errorf("layout: line %d: 'route' needs a strip name and at least two x y pairs", lineNo)
			}
			var pts []geom.Point
			for i := 2; i < len(fields); i += 2 {
				x, err1 := parseUm(fields[i])
				y, err2 := parseUm(fields[i+1])
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("layout: line %d: invalid route coordinate", lineNo)
				}
				pts = append(pts, geom.Pt(x, y))
			}
			if err := l.Route(fields[1], pts...); err != nil {
				return nil, fmt.Errorf("layout: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("layout: line %d: unknown keyword %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("layout: reading layout: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("layout: missing 'layout' header")
	}
	return l, nil
}

// ParseLayoutString reads a layout from an in-memory string.
func ParseLayoutString(s string, c *netlist.Circuit) (*Layout, error) {
	return ParseLayout(strings.NewReader(s), c)
}

func parseOrientation(s string) (geom.Orientation, error) {
	switch strings.ToUpper(s) {
	case "R0":
		return geom.R0, nil
	case "R90":
		return geom.R90, nil
	case "R180":
		return geom.R180, nil
	case "R270":
		return geom.R270, nil
	default:
		return geom.R0, fmt.Errorf("layout: unknown orientation %q", s)
	}
}

func parseUm(s string) (geom.Coord, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return geom.FromMicrons(v), nil
}

func um(c geom.Coord) string {
	return strconv.FormatFloat(geom.Microns(c), 'f', -1, 64)
}
