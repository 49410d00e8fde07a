// Package netlist describes the input of the RFIC layout problem (Section 3
// of the paper): the devices with their dimensions and pin offsets, the I/O
// pads that must sit on the layout boundary, and the microstrip lines with
// the exact equivalent lengths they must realize. It also provides a small
// text format for circuit files and validation of structural consistency.
package netlist

import (
	"fmt"

	"rficlayout/internal/geom"
)

// DeviceType classifies the devices that appear in mm-wave RFIC netlists.
type DeviceType int

// Device classes.
const (
	Transistor DeviceType = iota
	Capacitor
	Inductor
	Resistor
	Pad
	Generic
)

// deviceTypeNames maps types to their canonical lower-case names used in the
// circuit file format.
var deviceTypeNames = map[DeviceType]string{
	Transistor: "transistor",
	Capacitor:  "capacitor",
	Inductor:   "inductor",
	Resistor:   "resistor",
	Pad:        "pad",
	Generic:    "generic",
}

// String implements fmt.Stringer.
func (d DeviceType) String() string {
	if n, ok := deviceTypeNames[d]; ok {
		return n
	}
	return fmt.Sprintf("DeviceType(%d)", int(d))
}

// ParseDeviceType converts a name from the circuit file format.
func ParseDeviceType(s string) (DeviceType, error) {
	for t, n := range deviceTypeNames {
		if n == s {
			return t, nil
		}
	}
	return Generic, fmt.Errorf("netlist: unknown device type %q", s)
}

// Pin is a connection point on a device, described by its offset from the
// device centre in the device's unrotated frame. Pins that share a non-zero
// SwapGroup are electrically equivalent and may be exchanged by the layout
// generator (the paper notes that equivalent pins can be switched in the
// model).
type Pin struct {
	Name      string
	Offset    geom.Point
	SwapGroup int
}

// Device is a placeable circuit element: a transistor, passive component or
// I/O pad. Dimensions are those of the device body; the spacing rule expands
// them when checking clearance to microstrips and other devices.
type Device struct {
	Name   string
	Type   DeviceType
	Width  geom.Coord
	Height geom.Coord
	Pins   []Pin
}

// NewDevice builds a device with the given body size.
func NewDevice(name string, t DeviceType, width, height geom.Coord) *Device {
	return &Device{Name: name, Type: t, Width: width, Height: height}
}

// NewPad builds a square boundary pad with a single centred pin named "p".
func NewPad(name string, size geom.Coord) *Device {
	d := NewDevice(name, Pad, size, size)
	d.AddPin("p", geom.Pt(0, 0), 0)
	return d
}

// AddPin appends a pin at the given centre offset and returns the device for
// chaining.
func (d *Device) AddPin(name string, offset geom.Point, swapGroup int) *Device {
	d.Pins = append(d.Pins, Pin{Name: name, Offset: offset, SwapGroup: swapGroup})
	return d
}

// IsPad reports whether the device is an I/O pad, which the constraints force
// onto the layout boundary (Eq. 15).
func (d *Device) IsPad() bool { return d.Type == Pad }

// Pin returns the pin with the given name.
func (d *Device) Pin(name string) (Pin, error) {
	for _, p := range d.Pins {
		if p.Name == name {
			return p, nil
		}
	}
	return Pin{}, fmt.Errorf("netlist: device %q has no pin %q", d.Name, name)
}

// HasPin reports whether the device declares the named pin.
func (d *Device) HasPin(name string) bool {
	_, err := d.Pin(name)
	return err == nil
}

// PinOffset returns the offset of the named pin from the device centre after
// applying the given orientation.
func (d *Device) PinOffset(name string, o geom.Orientation) (geom.Point, error) {
	p, err := d.Pin(name)
	if err != nil {
		return geom.Point{}, err
	}
	return o.RotateOffset(p.Offset), nil
}

// Dimensions returns the body width and height after applying the given
// orientation (90° rotations swap the two).
func (d *Device) Dimensions(o geom.Orientation) (w, h geom.Coord) {
	if o.SwapsDimensions() {
		return d.Height, d.Width
	}
	return d.Width, d.Height
}

// BodyRect returns the device body rectangle when its centre is placed at c
// with orientation o.
func (d *Device) BodyRect(c geom.Point, o geom.Orientation) geom.Rect {
	w, h := d.Dimensions(o)
	return geom.RectFromCenter(c, w, h)
}

// Validate checks that the device is structurally sound: positive dimensions,
// unique pin names, pins inside the body.
func (d *Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("netlist: device with empty name")
	}
	if d.Width <= 0 || d.Height <= 0 {
		return fmt.Errorf("netlist: device %q has non-positive dimensions %d×%d nm", d.Name, d.Width, d.Height)
	}
	if len(d.Pins) == 0 {
		return fmt.Errorf("netlist: device %q has no pins", d.Name)
	}
	seen := map[string]bool{}
	body := geom.RectFromCenter(geom.Pt(0, 0), d.Width, d.Height)
	for _, p := range d.Pins {
		if p.Name == "" {
			return fmt.Errorf("netlist: device %q has a pin with empty name", d.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("netlist: device %q has duplicate pin %q", d.Name, p.Name)
		}
		seen[p.Name] = true
		if !body.ContainsPoint(p.Offset) {
			return fmt.Errorf("netlist: device %q pin %q offset %v lies outside the %d×%d nm body",
				d.Name, p.Name, p.Offset, d.Width, d.Height)
		}
	}
	return nil
}

// Terminal names one end of a microstrip: a device (or pad) and one of its
// pins.
type Terminal struct {
	Device string
	Pin    string
}

// String implements fmt.Stringer in the "device.pin" form used by the circuit
// file format.
func (t Terminal) String() string { return t.Device + "." + t.Pin }

// Microstrip is one transmission line of the circuit. TargetLength is the
// exact equivalent length the routed line must realize (constraint (13) of
// the paper); Width of zero means "use the technology default".
type Microstrip struct {
	Name         string
	From, To     Terminal
	TargetLength geom.Coord
	Width        geom.Coord
}

// Validate checks the microstrip fields that do not require the circuit
// context.
func (ms *Microstrip) Validate() error {
	if ms.Name == "" {
		return fmt.Errorf("netlist: microstrip with empty name")
	}
	if ms.TargetLength <= 0 {
		return fmt.Errorf("netlist: microstrip %q has non-positive target length %d nm", ms.Name, ms.TargetLength)
	}
	if ms.Width < 0 {
		return fmt.Errorf("netlist: microstrip %q has negative width", ms.Name)
	}
	if ms.From.Device == "" || ms.From.Pin == "" || ms.To.Device == "" || ms.To.Pin == "" {
		return fmt.Errorf("netlist: microstrip %q has incomplete terminals", ms.Name)
	}
	if ms.From == ms.To {
		return fmt.Errorf("netlist: microstrip %q connects a pin to itself", ms.Name)
	}
	return nil
}
