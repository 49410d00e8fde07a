package netlist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"rficlayout/internal/geom"
	"rficlayout/internal/tech"
)

// The circuit file format is a small line-oriented text format. Dimensions
// are micrometres (floats allowed), '#' starts a comment. Example:
//
//	circuit lna94
//	area 890 615
//	tech name=cmos90 t=5 width=10 delta=-4 pad=60
//	device M1 transistor 30 40
//	pin M1 gate -15 0
//	pin M1 drain 15 10 swap=1
//	pad P1
//	strip TL1 M1.drain P1.p length=320
//	strip TL2 M1.gate M2.drain length=150 width=8

// Parse reads a circuit file.
func Parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var c *Circuit
	techParams := tech.Default90nm()
	lineNo := 0
	ensure := func() error {
		if c == nil {
			return fmt.Errorf("netlist: line %d: statement before 'circuit' declaration", lineNo)
		}
		return nil
	}
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
		keyword, args := fields[0], fields[1:]
		switch keyword {
		case "circuit":
			if len(args) != 1 {
				return nil, fmt.Errorf("netlist: line %d: 'circuit' needs exactly one name", lineNo)
			}
			c = NewCircuit(args[0], techParams, 0, 0)
		case "area":
			if err := ensure(); err != nil {
				return nil, err
			}
			if len(args) != 2 {
				return nil, fmt.Errorf("netlist: line %d: 'area' needs width and height", lineNo)
			}
			w, err1 := parseMicrons(args[0])
			h, err2 := parseMicrons(args[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("netlist: line %d: invalid area dimensions", lineNo)
			}
			c.AreaWidth, c.AreaHeight = w, h
		case "tech":
			if err := ensure(); err != nil {
				return nil, err
			}
			t := c.Tech
			for _, kv := range args {
				key, value, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("netlist: line %d: malformed tech parameter %q", lineNo, kv)
				}
				if key == "name" {
					t.Name = value
					continue
				}
				um, err := parseMicrons(value)
				if err != nil {
					return nil, fmt.Errorf("netlist: line %d: tech parameter %q: %v", lineNo, kv, err)
				}
				switch key {
				case "t":
					t.GroundDistance = um
				case "width":
					t.MicrostripWidth = um
				case "delta":
					t.BendCompensation = um
				case "pad":
					t.PadSize = um
				case "spacing":
					t.SpacingOverride = um
				default:
					return nil, fmt.Errorf("netlist: line %d: unknown tech parameter %q", lineNo, key)
				}
			}
			c.Tech = t
		case "device":
			if err := ensure(); err != nil {
				return nil, err
			}
			if len(args) != 4 {
				return nil, fmt.Errorf("netlist: line %d: 'device' needs name, type, width, height", lineNo)
			}
			dt, err := ParseDeviceType(args[1])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			w, err1 := parseMicrons(args[2])
			h, err2 := parseMicrons(args[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("netlist: line %d: invalid device dimensions", lineNo)
			}
			c.AddDevice(NewDevice(args[0], dt, w, h))
		case "pad":
			if err := ensure(); err != nil {
				return nil, err
			}
			if len(args) < 1 || len(args) > 2 {
				return nil, fmt.Errorf("netlist: line %d: 'pad' needs a name and an optional size", lineNo)
			}
			size := c.Tech.PadSize
			if len(args) == 2 {
				s, err := parseMicrons(args[1])
				if err != nil {
					return nil, fmt.Errorf("netlist: line %d: invalid pad size", lineNo)
				}
				size = s
			}
			c.AddDevice(NewPad(args[0], size))
		case "pin":
			if err := ensure(); err != nil {
				return nil, err
			}
			if len(args) < 4 || len(args) > 5 {
				return nil, fmt.Errorf("netlist: line %d: 'pin' needs device, name, x, y and optional swap=N", lineNo)
			}
			d, err := c.Device(args[0])
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			x, err1 := parseMicrons(args[2])
			y, err2 := parseMicrons(args[3])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("netlist: line %d: invalid pin offset", lineNo)
			}
			swap := 0
			if len(args) == 5 {
				value, ok := strings.CutPrefix(args[4], "swap=")
				if !ok {
					return nil, fmt.Errorf("netlist: line %d: expected swap=N, got %q", lineNo, args[4])
				}
				swap, err = strconv.Atoi(value)
				if err != nil {
					return nil, fmt.Errorf("netlist: line %d: invalid swap group %q", lineNo, value)
				}
			}
			d.AddPin(args[1], geom.Pt(x, y), swap)
		case "strip":
			if err := ensure(); err != nil {
				return nil, err
			}
			if len(args) < 4 {
				return nil, fmt.Errorf("netlist: line %d: 'strip' needs name, from, to, length=L", lineNo)
			}
			from, err1 := parseTerminal(args[1])
			to, err2 := parseTerminal(args[2])
			if err1 != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err1)
			}
			if err2 != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err2)
			}
			ms := &Microstrip{Name: args[0], From: from, To: to}
			for _, kv := range args[3:] {
				key, value, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("netlist: line %d: malformed strip parameter %q", lineNo, kv)
				}
				um, err := parseMicrons(value)
				if err != nil {
					return nil, fmt.Errorf("netlist: line %d: strip parameter %q: %v", lineNo, kv, err)
				}
				switch key {
				case "length":
					ms.TargetLength = um
				case "width":
					ms.Width = um
				default:
					return nil, fmt.Errorf("netlist: line %d: unknown strip parameter %q", lineNo, key)
				}
			}
			c.AddMicrostrip(ms)
		default:
			return nil, fmt.Errorf("netlist: line %d: unknown keyword %q", lineNo, keyword)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading circuit: %w", err)
	}
	if c == nil {
		return nil, fmt.Errorf("netlist: no 'circuit' declaration found")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseFile reads a circuit file from disk.
func ParseFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// ParseString reads a circuit from an in-memory string.
func ParseString(s string) (*Circuit, error) {
	return Parse(strings.NewReader(s))
}

func parseTerminal(s string) (Terminal, error) {
	dev, pin, ok := strings.Cut(s, ".")
	if !ok || dev == "" || pin == "" {
		return Terminal{}, fmt.Errorf("netlist: terminal %q is not of the form device.pin", s)
	}
	return Terminal{Device: dev, Pin: pin}, nil
}

func parseMicrons(s string) (geom.Coord, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid micron value %q", s)
	}
	return geom.FromMicrons(v), nil
}

// Format renders the circuit in the text file format accepted by Parse.
func Format(c *Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s\n", c.Name)
	fmt.Fprintf(&b, "area %s %s\n", um(c.AreaWidth), um(c.AreaHeight))
	fmt.Fprintf(&b, "tech name=%s t=%s width=%s delta=%s pad=%s",
		c.Tech.Name, um(c.Tech.GroundDistance), um(c.Tech.MicrostripWidth),
		um(c.Tech.BendCompensation), um(c.Tech.PadSize))
	if c.Tech.SpacingOverride > 0 {
		fmt.Fprintf(&b, " spacing=%s", um(c.Tech.SpacingOverride))
	}
	b.WriteByte('\n')

	devices := append([]*Device(nil), c.Devices...)
	sort.Slice(devices, func(i, j int) bool { return devices[i].Name < devices[j].Name })
	for _, d := range devices {
		if d.IsPad() && len(d.Pins) == 1 && d.Pins[0].Name == "p" && d.Width == d.Height {
			fmt.Fprintf(&b, "pad %s %s\n", d.Name, um(d.Width))
			continue
		}
		fmt.Fprintf(&b, "device %s %s %s %s\n", d.Name, d.Type, um(d.Width), um(d.Height))
		for _, p := range d.Pins {
			fmt.Fprintf(&b, "pin %s %s %s %s", d.Name, p.Name, um(p.Offset.X), um(p.Offset.Y))
			if p.SwapGroup != 0 {
				fmt.Fprintf(&b, " swap=%d", p.SwapGroup)
			}
			b.WriteByte('\n')
		}
	}
	for _, ms := range c.Microstrips {
		fmt.Fprintf(&b, "strip %s %s %s length=%s", ms.Name, ms.From, ms.To, um(ms.TargetLength))
		if ms.Width > 0 {
			fmt.Fprintf(&b, " width=%s", um(ms.Width))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// um renders a Coord as a compact micron string.
func um(c geom.Coord) string {
	return strconv.FormatFloat(geom.Microns(c), 'f', -1, 64)
}
