package layout

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"rficlayout/internal/geom"
)

func TestLayoutFormatParseRoundTrip(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	text := Format(l)
	parsed, err := ParseLayoutString(text, l.Circuit)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	if !parsed.Complete() {
		t.Fatal("round-tripped layout incomplete")
	}
	for _, pd := range l.PlacedDevices() {
		got := parsed.Placed(pd.Device.Name)
		if got == nil || !got.Center.Eq(pd.Center) || got.Orient != pd.Orient {
			t.Errorf("device %s changed in round trip", pd.Device.Name)
		}
	}
	for _, rs := range l.RoutedStrips() {
		got := parsed.Routed(rs.Strip.Name)
		if got == nil || len(got.Path.Points) != len(rs.Path.Points) {
			t.Errorf("strip %s changed in round trip", rs.Strip.Name)
			continue
		}
		for i := range rs.Path.Points {
			if !got.Path.Points[i].Eq(rs.Path.Points[i]) {
				t.Errorf("strip %s point %d changed", rs.Strip.Name, i)
			}
		}
	}
	// The round-tripped layout passes DRC exactly like the original.
	if vs := parsed.Check(CheckOptions{}); len(vs) != 0 {
		t.Errorf("round-tripped layout has violations: %v", vs)
	}
}

func TestParseLayoutErrors(t *testing.T) {
	c := testCircuit()
	cases := []struct {
		name string
		src  string
	}{
		{"missing header", "place M1 10 10 R0\n"},
		{"wrong circuit", "layout other\n"},
		{"bad place arity", "layout chain\nplace M1 10 10\n"},
		{"bad coordinates", "layout chain\nplace M1 ten 10 R0\n"},
		{"bad orientation", "layout chain\nplace M1 10 10 R45\n"},
		{"unknown device", "layout chain\nplace ZZ 10 10 R0\n"},
		{"bad route arity", "layout chain\nroute TLIN 10 10\n"},
		{"odd route coords", "layout chain\nroute TLIN 10 10 20\n"},
		{"bad route value", "layout chain\nroute TLIN 10 10 x 20\n"},
		{"unknown strip", "layout chain\nroute ZZ 0 0 10 0\n"},
		{"diagonal route", "layout chain\nroute TLIN 0 0 10 10\n"},
		{"unknown keyword", "layout chain\nteleport M1\n"},
		{"header arity", "layout chain extra\n"},
	}
	for _, tc := range cases {
		if _, err := ParseLayoutString(tc.src, c); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseLayoutIgnoresComments(t *testing.T) {
	c := testCircuit()
	src := `
# a comment
layout chain
place PIN 0 150 R0   # trailing comment
`
	l, err := ParseLayoutString(src, c)
	if err != nil {
		t.Fatal(err)
	}
	if l.Placed("PIN") == nil {
		t.Error("placement lost")
	}
}

func TestWriteSVG(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	var sb strings.Builder
	if err := WriteSVG(&sb, l, "chain layout"); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	for _, want := range []string{"<svg", "</svg>", "chain layout", "M1", "TLIN", "<path"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

// TestWriteSVGEscapesNames renders a layout whose title, device and strip
// names hold XML's special characters, as the netlist parser accepts them,
// and requires the SVG to decode as XML with every name intact.
func TestWriteSVGEscapesNames(t *testing.T) {
	l := completeLayout(t)
	l.Placed("M1").Device.Name = `M&<1>"`
	l.Routed("TLIN").Strip.Name = `T&"in"<>`
	title := `R&D <lna> "x"`
	var sb strings.Builder
	if err := WriteSVG(&sb, l, title); err != nil {
		t.Fatal(err)
	}
	text := map[string]bool{}
	dec := xml.NewDecoder(strings.NewReader(sb.String()))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("SVG is not well-formed XML: %v\n%s", err, sb.String())
		}
		if cd, ok := tok.(xml.CharData); ok {
			text[string(cd)] = true
		}
	}
	for _, want := range []string{title, `M&<1>"`, `T&"in"<>`} {
		if !text[want] {
			t.Errorf("decoded SVG has no text %q", want)
		}
	}
}

func TestSaveSVG(t *testing.T) {
	l := completeLayout(t)
	path := t.TempDir() + "/layout.svg"
	if err := SaveSVG(path, l, ""); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLayoutString(Format(l), l.Circuit)
	if err != nil || parsed == nil {
		t.Fatal("sanity re-parse failed")
	}
	if err := SaveSVG("/nonexistent-dir/x.svg", l, ""); err == nil {
		t.Error("expected error for unwritable path")
	}
}

func TestFormatEmptyLayout(t *testing.T) {
	l := New(testCircuit())
	text := Format(l)
	if !strings.HasPrefix(text, "layout chain\n") {
		t.Errorf("unexpected format: %q", text)
	}
	parsed, err := ParseLayoutString(text, l.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Complete() {
		t.Error("empty layout should not be complete")
	}
	_ = geom.Pt(0, 0)
}
