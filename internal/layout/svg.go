package layout

import (
	"fmt"
	"html"
	"io"
	"os"

	"rficlayout/internal/geom"
)

// WriteSVG renders the layout as an SVG drawing at one pixel per micron:
// the layout area outline, device bodies (pads hatched), pin markers, the
// smoothed microstrip centrelines and every device and strip name, mirroring
// the style of the layout figures in the paper. A non-empty title is a
// caption above the layout. The title and the names are XML-escaped, so any
// name the netlist parser accepts yields well-formed SVG.
func WriteSVG(w io.Writer, l *Layout, title string) error {
	um := geom.Microns
	// SVG has y growing downward; flip so the layout origin is bottom-left.
	flipY := func(c geom.Coord) float64 { return um(l.Circuit.AreaHeight - c) }

	const margin = 20.0
	width := um(l.Circuit.AreaWidth) + 2*margin
	height := um(l.Circuit.AreaHeight) + 2*margin
	titleSpace := 0.0
	if title != "" {
		titleSpace = 24
	}

	var err error
	printf := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	printf(`<svg xmlns="http://www.w3.org/2000/svg" width="%.1f" height="%.1f" viewBox="0 0 %.1f %.1f">`+"\n",
		width, height+titleSpace, width, height+titleSpace)
	printf(`<rect width="100%%" height="100%%" fill="white"/>` + "\n")
	if title != "" {
		printf(`<text x="%.1f" y="16" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n",
			width/2, html.EscapeString(title))
	}
	printf(`<g transform="translate(%.1f,%.1f)">`+"\n", margin, margin+titleSpace)

	// Layout area outline.
	printf(`<rect x="0" y="0" width="%.2f" height="%.2f" fill="#fafafa" stroke="black" stroke-width="1"/>`+"\n",
		um(l.Circuit.AreaWidth), um(l.Circuit.AreaHeight))

	// Devices.
	for _, pd := range l.PlacedDevices() {
		body := pd.BodyRect()
		fill := "#d9e8fb"
		stroke := "#2b5a9b"
		if pd.Device.IsPad() {
			fill = "#f3d9a8"
			stroke = "#9b6a2b"
		}
		printf(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="%s" stroke-width="0.8"/>`+"\n",
			um(body.Min.X), flipY(body.Max.Y), um(body.Width()), um(body.Height()), fill, stroke)
		for _, pin := range pd.Device.Pins {
			pos, perr := pd.PinPosition(pin.Name)
			if perr != nil {
				continue
			}
			printf(`<circle cx="%.2f" cy="%.2f" r="1.6" fill="#c03030"/>`+"\n", um(pos.X), flipY(pos.Y))
		}
		c := pd.Center
		printf(`<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="8" text-anchor="middle">%s</text>`+"\n",
			um(c.X), flipY(c.Y), html.EscapeString(pd.Device.Name))
	}

	// Microstrips: smoothed centrelines drawn with the strip width.
	for _, rs := range l.RoutedStrips() {
		pts := rs.SmoothedRoute()
		if len(pts) < 2 {
			continue
		}
		path := ""
		for i, p := range pts {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			path += fmt.Sprintf("%s %.2f %.2f ", cmd, um(p.X), flipY(p.Y))
		}
		printf(`<path d="%s" fill="none" stroke="#3a7d44" stroke-width="%.2f" stroke-linejoin="round" stroke-linecap="round" opacity="0.85"/>`+"\n",
			path, um(rs.Path.Width))
		mid := pts[len(pts)/2]
		printf(`<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="7" fill="#205528">%s</text>`+"\n",
			um(mid.X), flipY(mid.Y)-2, html.EscapeString(rs.Strip.Name))
	}

	printf("</g>\n</svg>\n")
	return err
}

// SaveSVG writes WriteSVG's rendering, captioned with title, to a file.
func SaveSVG(path string, l *Layout, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteSVG(f, l, title); err != nil {
		return err
	}
	return f.Close()
}
