package raster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/scene"
)

func TestGeoRefRoundTrip(t *testing.T) {
	gr := GeoRef{OriginX: 21, OriginY: 40, DX: 0.05, DY: 0.04, SRID: geo.SRIDWGS84}
	p := gr.PixelToLonLat(10, 20)
	row, col := gr.LonLatToPixel(p)
	if row != 10 || col != 20 {
		t.Fatalf("round trip = (%d, %d)", row, col)
	}
	fp := gr.PixelEnvelope(0, 0)
	if c := gr.PixelToLonLat(0, 0); !fp.Intersects(c.Envelope()) {
		t.Fatal("pixel centre should lie in its footprint")
	}
	if fp.Area() <= 0 {
		t.Fatal("footprint area")
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	opts := GenOptions{Width: 32, Height: 32, Steps: 2}
	a := Generate(opts)
	b := Generate(opts)
	if len(a) != 2 {
		t.Fatalf("frames = %d", len(a))
	}
	for i := range a {
		for band, img := range a[i].Bands {
			other := b[i].Bands[band]
			for j := range img.Data {
				if img.Data[j] != other.Data[j] {
					t.Fatalf("frame %d band %s cell %d differs", i, band, j)
				}
			}
		}
	}
	// 15-minute cadence.
	if got := a[1].Time.Sub(a[0].Time); got != 15*time.Minute {
		t.Fatalf("cadence = %v", got)
	}
	if a[0].Sensor != "SEVIRI" {
		t.Fatalf("sensor = %q", a[0].Sensor)
	}
	env := a[0].Envelope()
	if !env.Intersects(scene.Region) {
		t.Fatal("frame envelope should cover the region")
	}
}

func TestGenerateFiresAreHot(t *testing.T) {
	frames := Generate(GenOptions{Width: 128, Height: 128, Steps: 6})
	last := frames[5]
	ir39, err := last.Band(BandIR39)
	if err != nil {
		t.Fatal(err)
	}
	// Sample the PineFire location: should be far hotter than background.
	fire := scene.FireEvents()[1] // PineFire, start step 0
	row, col := last.GeoRef.LonLatToPixel(fire.Loc)
	hot := ir39.At2(row, col)
	// Background land pixel away from any fire.
	bgRow, bgCol := last.GeoRef.LonLatToPixel(geo.Point{X: 24.0, Y: 37.8})
	bg := ir39.At2(bgRow, bgCol)
	if hot < bg+20 {
		t.Fatalf("fire pixel %g not much hotter than background %g", hot, bg)
	}
	// IR 10.8 responds much less.
	ir108, _ := last.Band(BandIR108)
	if ir108.At2(row, col) > ir39.At2(row, col) {
		t.Fatal("IR_039 should exceed IR_108 over fire")
	}
	// Sea pixels are cooler than land.
	seaRow, seaCol := last.GeoRef.LonLatToPixel(geo.Point{X: 26.5, Y: 36.3})
	if ir108.At2(seaRow, seaCol) >= ir108.At2(bgRow, bgCol) {
		t.Fatal("sea should be cooler than land at noon")
	}
}

func TestGenerateSpuriousInSea(t *testing.T) {
	// The seeded spurious events must actually lie in the sea, otherwise
	// Scenario 2 cannot demonstrate the refinement.
	land := scene.Landmass()
	for _, fe := range scene.FireEvents() {
		onLand := geo.Intersects(fe.Loc, land)
		if fe.Spurious && onLand {
			t.Errorf("spurious fire %s is on land", fe.Name)
		}
		if !fe.Spurious && !onLand {
			t.Errorf("real fire %s is in the sea", fe.Name)
		}
	}
}

func TestBandMissing(t *testing.T) {
	f := Generate(GenOptions{Width: 8, Height: 8})[0]
	if _, err := f.Band(Band("IR_999")); err == nil {
		t.Fatal("missing band should error")
	}
}

func TestFrameFormatRoundTrip(t *testing.T) {
	f := Generate(GenOptions{Width: 16, Height: 12, Steps: 1})[0]
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID || got.Satellite != f.Satellite || got.Sensor != f.Sensor {
		t.Fatal("metadata")
	}
	if !got.Time.Equal(f.Time) {
		t.Fatalf("time %v != %v", got.Time, f.Time)
	}
	if got.GeoRef != f.GeoRef {
		t.Fatalf("georef %+v != %+v", got.GeoRef, f.GeoRef)
	}
	if len(got.Bands) != len(f.Bands) {
		t.Fatalf("bands = %d", len(got.Bands))
	}
	for name, img := range f.Bands {
		gimg := got.Bands[name]
		if gimg == nil {
			t.Fatalf("band %s missing", name)
		}
		for i := range img.Data {
			if img.Data[i] != gimg.Data[i] {
				t.Fatalf("band %s cell %d: %g != %g", name, i, gimg.Data[i], img.Data[i])
			}
		}
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestSaveLoadFrame(t *testing.T) {
	dir := t.TempDir()
	f := Generate(GenOptions{Width: 8, Height: 8})[0]
	path, err := SaveFrame(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(path) != ".sev" {
		t.Fatalf("path = %q", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrame(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID {
		t.Fatal("ID")
	}
	if _, err := LoadFrame(filepath.Join(dir, "missing.sev")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestSceneConsistency(t *testing.T) {
	// Sites, towns, forests all on land.
	land := scene.Landmass()
	for _, s := range scene.ArchaeologicalSites() {
		if !geo.Intersects(s.Loc, land) {
			t.Errorf("site %s off land at %v", s.Name, s.Loc)
		}
	}
	for _, s := range scene.Towns() {
		if !geo.Intersects(s.Loc, land) {
			t.Errorf("town %s off land at %v", s.Name, s.Loc)
		}
	}
	for _, f := range scene.Forests() {
		if !geo.Within(f.Area, land) {
			t.Errorf("forest %s not within land", f.Name)
		}
	}
	// Sea and land are disjoint interiors.
	sea := scene.Sea()
	if geo.Area(sea) <= 0 {
		t.Fatal("sea has no area")
	}
	// Analytic land test agrees with the polygon on interior points.
	for _, s := range scene.ArchaeologicalSites() {
		if !scene.OnLandAnalytic(s.Loc) {
			t.Errorf("analytic land test disagrees at %s", s.Name)
		}
	}
	if scene.OnLandAnalytic(geo.Point{X: 26.8, Y: 36.2}) {
		t.Error("far corner should be sea")
	}
	if !geo.Intersects(geo.Point{X: 24, Y: 38}, scene.Landmass()) {
		t.Error("centre should be land")
	}
}
