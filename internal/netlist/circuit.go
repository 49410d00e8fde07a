package netlist

import (
	"fmt"
	"sort"

	"rficlayout/internal/geom"
	"rficlayout/internal/tech"
)

// Circuit is the complete layout problem instance: the technology, the layout
// area, the devices/pads, and the microstrips with their exact target
// lengths.
type Circuit struct {
	Name        string
	Tech        tech.Technology
	AreaWidth   geom.Coord
	AreaHeight  geom.Coord
	Devices     []*Device
	Microstrips []*Microstrip

	deviceIndex map[string]*Device
}

// NewCircuit creates an empty circuit with the given technology and layout
// area dimensions.
func NewCircuit(name string, t tech.Technology, areaWidth, areaHeight geom.Coord) *Circuit {
	return &Circuit{
		Name:        name,
		Tech:        t,
		AreaWidth:   areaWidth,
		AreaHeight:  areaHeight,
		deviceIndex: map[string]*Device{},
	}
}

// Area returns the layout area rectangle with its lower-left corner at the
// origin.
func (c *Circuit) Area() geom.Rect {
	return geom.R(0, 0, c.AreaWidth, c.AreaHeight)
}

// AddDevice appends a device and returns it for further configuration.
func (c *Circuit) AddDevice(d *Device) *Device {
	c.Devices = append(c.Devices, d)
	if c.deviceIndex == nil {
		c.deviceIndex = map[string]*Device{}
	}
	c.deviceIndex[d.Name] = d
	return d
}

// AddMicrostrip appends a microstrip to the circuit.
func (c *Circuit) AddMicrostrip(ms *Microstrip) *Microstrip {
	c.Microstrips = append(c.Microstrips, ms)
	return ms
}

// Connect is a convenience helper that creates a microstrip between
// "fromDevice.fromPin" and "toDevice.toPin" with the given exact target
// length (zero width means the technology default).
func (c *Circuit) Connect(name, fromDevice, fromPin, toDevice, toPin string, targetLength geom.Coord) *Microstrip {
	ms := &Microstrip{
		Name:         name,
		From:         Terminal{Device: fromDevice, Pin: fromPin},
		To:           Terminal{Device: toDevice, Pin: toPin},
		TargetLength: targetLength,
	}
	return c.AddMicrostrip(ms)
}

// Device returns the device with the given name.
func (c *Circuit) Device(name string) (*Device, error) {
	// Lookups must stay read-only: the progressive flow queries the circuit
	// from concurrent solver workers, so a stale index falls back to a linear
	// scan instead of rebuilding in place.
	if idx := c.deviceIndex; idx != nil && len(idx) == len(c.Devices) {
		if d, ok := idx[name]; ok {
			return d, nil
		}
		return nil, fmt.Errorf("netlist: circuit %q has no device %q", c.Name, name)
	}
	for _, d := range c.Devices {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("netlist: circuit %q has no device %q", c.Name, name)
}

func (c *Circuit) rebuildIndex() {
	c.deviceIndex = make(map[string]*Device, len(c.Devices))
	for _, d := range c.Devices {
		c.deviceIndex[d.Name] = d
	}
}

// NonPadDevices returns the devices that are not pads.
func (c *Circuit) NonPadDevices() []*Device {
	var out []*Device
	for _, d := range c.Devices {
		if !d.IsPad() {
			out = append(out, d)
		}
	}
	return out
}

// Microstrip returns the microstrip with the given name.
func (c *Circuit) Microstrip(name string) (*Microstrip, error) {
	for _, ms := range c.Microstrips {
		if ms.Name == name {
			return ms, nil
		}
	}
	return nil, fmt.Errorf("netlist: circuit %q has no microstrip %q", c.Name, name)
}

// StripsAt returns the microstrips that attach to the named device, sorted by
// name for deterministic iteration.
func (c *Circuit) StripsAt(device string) []*Microstrip {
	var out []*Microstrip
	for _, ms := range c.Microstrips {
		if ms.From.Device == device || ms.To.Device == device {
			out = append(out, ms)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats summarizes the circuit the way Table 1 of the paper does.
func (c *Circuit) Stats() string {
	return fmt.Sprintf("%s: %d microstrips, %d devices, area %.0fµm×%.0fµm",
		c.Name, len(c.Microstrips), len(c.Devices),
		geom.Microns(c.AreaWidth), geom.Microns(c.AreaHeight))
}

// Validate checks the full problem instance: technology, area, devices,
// microstrips, terminal references and a conservative capacity check that the
// device area fits into the layout area.
func (c *Circuit) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("netlist: circuit with empty name")
	}
	if err := c.Tech.Validate(); err != nil {
		return fmt.Errorf("netlist: circuit %q: %w", c.Name, err)
	}
	if c.AreaWidth <= 0 || c.AreaHeight <= 0 {
		return fmt.Errorf("netlist: circuit %q has non-positive area %d×%d nm", c.Name, c.AreaWidth, c.AreaHeight)
	}
	names := map[string]bool{}
	var deviceArea int64
	for _, d := range c.Devices {
		if err := d.Validate(); err != nil {
			return err
		}
		if names[d.Name] {
			return fmt.Errorf("netlist: circuit %q has duplicate device %q", c.Name, d.Name)
		}
		names[d.Name] = true
		if d.Width > c.AreaWidth || d.Height > c.AreaHeight {
			if d.Height > c.AreaWidth || d.Width > c.AreaHeight {
				return fmt.Errorf("netlist: device %q (%d×%d nm) cannot fit the %d×%d nm layout area in any orientation",
					d.Name, d.Width, d.Height, c.AreaWidth, c.AreaHeight)
			}
		}
		deviceArea += int64(d.Width) * int64(d.Height)
	}
	if areaCap := int64(c.AreaWidth) * int64(c.AreaHeight); deviceArea > areaCap {
		return fmt.Errorf("netlist: circuit %q device area %d nm² exceeds layout area %d nm²", c.Name, deviceArea, areaCap)
	}
	stripNames := map[string]bool{}
	for _, ms := range c.Microstrips {
		if err := ms.Validate(); err != nil {
			return err
		}
		if stripNames[ms.Name] {
			return fmt.Errorf("netlist: circuit %q has duplicate microstrip %q", c.Name, ms.Name)
		}
		stripNames[ms.Name] = true
		for _, term := range []Terminal{ms.From, ms.To} {
			d, err := c.Device(term.Device)
			if err != nil {
				return fmt.Errorf("netlist: microstrip %q: %w", ms.Name, err)
			}
			if !d.HasPin(term.Pin) {
				return fmt.Errorf("netlist: microstrip %q references missing pin %s", ms.Name, term)
			}
		}
	}
	return nil
}
