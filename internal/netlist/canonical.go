package netlist

import "sort"

// Normalized returns a copy of the circuit with devices, pins and
// microstrips in canonical (name-sorted) order. The progressive flow
// normalizes its input before solving so that two circuits that differ only
// in declaration order produce byte-identical layouts — the property that
// lets the result cache key on Canonical text. Device structs are copied
// (their pin slices are re-sorted); microstrips are shared, unmodified.
func Normalized(c *Circuit) *Circuit {
	cp := *c
	cp.Devices = make([]*Device, len(c.Devices))
	for i, d := range c.Devices {
		dd := *d
		dd.Pins = append([]Pin(nil), d.Pins...)
		sort.Slice(dd.Pins, func(a, b int) bool { return dd.Pins[a].Name < dd.Pins[b].Name })
		cp.Devices[i] = &dd
	}
	sort.Slice(cp.Devices, func(a, b int) bool { return cp.Devices[a].Name < cp.Devices[b].Name })
	cp.Microstrips = append([]*Microstrip(nil), c.Microstrips...)
	sort.Slice(cp.Microstrips, func(a, b int) bool { return cp.Microstrips[a].Name < cp.Microstrips[b].Name })
	cp.rebuildIndex()
	return &cp
}

// Canonical renders the Normalized circuit with Format, so every
// order-insensitive section is sorted: devices by name, pins by name within
// their device, microstrips by name. Two circuits that differ only in
// declaration order — or in incidental formatting of the source file —
// produce byte-identical canonical text, which is what makes it suitable as
// the hashing pre-image of the content-addressed result cache: the solver
// flow is a pure function of this structure, so equal canonical text implies
// an equal layout.
//
// Canonical output is itself parseable by Parse and round-trips: parsing it
// and canonicalizing again reproduces the same bytes.
func Canonical(c *Circuit) string {
	return Format(Normalized(c))
}
