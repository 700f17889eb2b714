package noa

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/linkeddata"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/sciql"
	"repro/internal/strabon"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

// demoFrames generates the standard demo scenario at test resolution.
func demoFrames(t *testing.T, steps int) []*raster.Frame {
	t.Helper()
	return raster.Generate(raster.GenOptions{Width: 128, Height: 128, Steps: steps})
}

func TestChainDetectsSeededFires(t *testing.T) {
	frames := demoFrames(t, 6)
	chain := DefaultChain(scene.Region)
	p, err := chain.Run(frames[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hotspots) == 0 {
		t.Fatal("no hotspots detected")
	}
	// Every seeded fire active by frame 5 should be covered by a hotspot.
	for _, fe := range scene.FireEvents() {
		if fe.StartStep > 5 {
			continue
		}
		found := false
		for _, h := range p.Hotspots {
			if geo.GeodesicDistanceMeters(h.Geometry, fe.Loc) < 20000 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fire %s at %v not detected", fe.Name, fe.Loc)
		}
	}
	// Confidence bounds.
	for _, h := range p.Hotspots {
		if h.Confidence < 0.5 || h.Confidence >= 1 {
			t.Errorf("hotspot %s confidence %g out of range", h.ID, h.Confidence)
		}
		if h.PixelCount < 1 {
			t.Errorf("hotspot %s has no pixels", h.ID)
		}
		if err := geo.Validate(h.Geometry); err != nil {
			t.Errorf("hotspot %s geometry invalid: %v", h.ID, err)
		}
	}
	// Stage timings recorded.
	for _, stage := range []string{"crop", "georeference", "classify", "geometry"} {
		if _, ok := p.Timings[stage]; !ok {
			t.Errorf("missing timing for stage %s", stage)
		}
	}
}

func TestChainNoFiresNoHotspots(t *testing.T) {
	frames := raster.Generate(raster.GenOptions{
		Width: 64, Height: 64, Steps: 1,
		Fires: []scene.FireEvent{},
	})
	chain := DefaultChain(scene.Region)
	p, err := chain.Run(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hotspots) != 0 {
		t.Fatalf("false positives without fires: %d", len(p.Hotspots))
	}
}

func TestChainWithResampling(t *testing.T) {
	frames := demoFrames(t, 4)
	chain := DefaultChain(scene.Region)
	chain.TargetH, chain.TargetW = 96, 96
	p, err := chain.Run(frames[3])
	if err != nil {
		t.Fatal(err)
	}
	if p.GeoRef.DX == frames[3].GeoRef.DX {
		t.Fatal("georeference should change resolution")
	}
	if len(p.Hotspots) == 0 {
		t.Fatal("resampled chain lost all hotspots")
	}
}

func TestChainCropMiss(t *testing.T) {
	frames := demoFrames(t, 1)
	chain := DefaultChain(geo.Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101})
	if _, err := chain.Run(frames[0]); err == nil {
		t.Fatal("crop outside the frame should error")
	}
}

func TestChainSciQLAgreesWithNative(t *testing.T) {
	frames := demoFrames(t, 6)
	f := frames[5]
	chain := DefaultChain(scene.Region)
	native, err := chain.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	eng := sciql.NewEngine()
	maskObj, err := chain.RunSciQL(eng, f)
	if err != nil {
		t.Fatal(err)
	}
	mask := maskObj.Values["v"]
	// The SciQL mask's hot-pixel count must equal the native product's
	// total pixel count.
	hot := 0
	for _, v := range mask.Data {
		if v == 1 {
			hot++
		}
	}
	nativePixels := 0
	for _, h := range native.Hotspots {
		nativePixels += h.PixelCount
	}
	if hot != nativePixels {
		t.Fatalf("SciQL mask pixels %d != native %d", hot, nativePixels)
	}
}

func TestProductTriples(t *testing.T) {
	frames := demoFrames(t, 4)
	chain := DefaultChain(scene.Region)
	p, err := chain.Run(frames[3])
	if err != nil {
		t.Fatal(err)
	}
	triples := p.Triples()
	if len(triples) != 8*len(p.Hotspots) {
		t.Fatalf("triples = %d for %d hotspots", len(triples), len(p.Hotspots))
	}
	// Geometry and period literals decode.
	for _, tr := range triples {
		switch tr.P.Value {
		case PropGeometry:
			if _, err := strdf.ParseSpatial(tr.O); err != nil {
				t.Fatalf("bad geometry literal: %v", err)
			}
		case PropValidTime:
			period, err := strdf.ParsePeriod(tr.O)
			if err != nil {
				t.Fatalf("bad period literal: %v", err)
			}
			if !period.Contains(p.Time.Add(time.Minute)) {
				t.Fatal("valid time should cover the repeat cycle")
			}
		}
	}
}

// TestTemporalHotspotQuery exercises the stRDF valid-time dimension: only
// hotspots whose validity period overlaps the asked interval answer.
func TestTemporalHotspotQuery(t *testing.T) {
	frames := demoFrames(t, 3)
	chain := DefaultChain(scene.Region)
	eng := stsparql.New(strabon.NewStore())
	for _, f := range frames {
		p, err := chain.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		StoreProduct(eng, p)
	}
	// Frames are 12:00, 12:15, 12:30; ask for fires valid around 12:20.
	res := eng.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h WHERE {
			?h a mon:Hotspot .
			?h noa:validTime ?vt .
			FILTER(strdf:overlapsPeriod(?vt, "[2007-08-25T12:20:00Z, 2007-08-25T12:25:00Z)"^^strdf:period))
		}`)
	if len(res.Bindings) == 0 {
		t.Fatal("no hotspots valid at 12:20")
	}
	for _, b := range res.Bindings {
		if !strings.Contains(b["h"].Value, "1215") {
			t.Fatalf("hotspot %s should come from the 12:15 frame", b["h"].Value)
		}
	}
}

// refinedFixture runs the chain, stores products + auxiliary data, and
// returns the engine plus the pre-refinement product.
func refinedFixture(t *testing.T) (*stsparql.Engine, *Product) {
	t.Helper()
	frames := demoFrames(t, 6)
	chain := DefaultChain(scene.Region)
	p, err := chain.Run(frames[5])
	if err != nil {
		t.Fatal(err)
	}
	eng := stsparql.New(strabon.NewStore())
	StoreProduct(eng, p)
	eng.Store().AddAll(linkeddata.All())
	return eng, p
}

func TestRefinementRemovesSeaHotspots(t *testing.T) {
	eng, p := refinedFixture(t)
	stats, err := Refine(eng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != len(p.Hotspots) {
		t.Fatalf("total = %d, want %d", stats.Total, len(p.Hotspots))
	}
	if stats.Rejected == 0 {
		t.Fatal("no sea hotspots rejected; the demo's false positives were seeded in the sea")
	}
	// Post-refinement: no remaining hotspot is disjoint from the landmass.
	geoms, err := QueryHotspotGeometries(eng)
	if err != nil {
		t.Fatal(err)
	}
	land := scene.Landmass()
	for iri, g := range geoms {
		v, err := strdf.ParseSpatial(g)
		if err != nil {
			t.Fatalf("%s: %v", iri, err)
		}
		if geo.Disjoint(v.Geom, land) {
			t.Errorf("hotspot %s still entirely in the sea", iri)
		}
	}
	// Real fires survive: each non-spurious seeded fire still has a
	// nearby hotspot.
	for _, fe := range scene.FireEvents() {
		if fe.Spurious || fe.StartStep > 5 {
			continue
		}
		found := false
		for _, g := range geoms {
			v, _ := strdf.ParseSpatial(g)
			if geo.GeodesicDistanceMeters(v.Geom, fe.Loc) < 20000 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("real fire %s lost in refinement", fe.Name)
		}
	}
}

func TestRefinementIdempotent(t *testing.T) {
	eng, _ := refinedFixture(t)
	if _, err := Refine(eng); err != nil {
		t.Fatal(err)
	}
	again, err := Refine(eng)
	if err != nil {
		t.Fatal(err)
	}
	if again.Rejected != 0 {
		t.Fatalf("second refinement rejected %d more", again.Rejected)
	}
}

func TestFireMap(t *testing.T) {
	eng, _ := refinedFixture(t)
	if _, err := Refine(eng); err != nil {
		t.Fatal(err)
	}
	m, err := BuildFireMap(eng, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layer("hotspots")) == 0 {
		t.Fatal("fire map has no hotspots")
	}
	// PineFire burns inside PineForestNorth, so the forests layer must
	// appear.
	if len(m.Layer("forests")) == 0 {
		t.Fatal("fire map misses the burning forest")
	}
	// The Olympia fire is ~1.5 km from the Olympia site.
	foundOlympia := false
	for _, f := range m.Layer("sites") {
		if f.Properties["name"] == "Olympia" {
			foundOlympia = true
		}
	}
	if !foundOlympia {
		t.Fatal("fire map misses the Olympia site")
	}
	// GeoJSON output round-trips as JSON.
	var buf bytes.Buffer
	if err := m.WriteGeoJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["type"] != "FeatureCollection" {
		t.Fatal("not a FeatureCollection")
	}
	feats := doc["features"].([]any)
	if len(feats) != len(m.Features) {
		t.Fatalf("features = %d, want %d", len(feats), len(m.Features))
	}
}

func TestFireMapEmptyStore(t *testing.T) {
	eng := stsparql.New(strabon.NewStore())
	m, err := BuildFireMap(eng, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != 0 {
		t.Fatal("empty store should give empty map")
	}
}

func TestShapefileRoundTrip(t *testing.T) {
	frames := demoFrames(t, 6)
	chain := DefaultChain(scene.Region)
	p, err := chain.Run(frames[5])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteShapefile(&buf, p.Hotspots); err != nil {
		t.Fatal(err)
	}
	got, err := readShapefile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(p.Hotspots) {
		t.Fatalf("records = %d, want %d", len(got), len(p.Hotspots))
	}
	for i, g := range got {
		// Envelopes must match the source geometries.
		want := p.Hotspots[i].Geometry.Envelope()
		env := g.Envelope()
		if !envClose(env, want) {
			t.Errorf("record %d envelope %+v != %+v", i, env, want)
		}
	}
}

func envClose(a, b geo.Envelope) bool {
	const tol = 1e-9
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return abs(a.MinX-b.MinX) < tol && abs(a.MinY-b.MinY) < tol &&
		abs(a.MaxX-b.MaxX) < tol && abs(a.MaxY-b.MaxY) < tol
}

func TestShapefileErrors(t *testing.T) {
	if _, err := readShapefile(strings.NewReader("short")); err == nil {
		t.Fatal("short input should error")
	}
	bad := make([]byte, 100)
	if _, err := readShapefile(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad file code should error")
	}
}

func TestRefinementUpdatesParse(t *testing.T) {
	for i, u := range RefinementUpdates() {
		if _, err := stsparql.ParseQuery(u); err != nil {
			t.Errorf("update %d does not parse: %v", i, err)
		}
	}
}

// readShapefile decodes the polygon records of a .shp stream, returning
// one geometry per record (holes are not reconstructed; every ring
// becomes a polygon part, which suffices for round-trip verification).
func readShapefile(r io.Reader) ([]geo.Geometry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 100 {
		return nil, fmt.Errorf("noa: shapefile too short")
	}
	if binary.BigEndian.Uint32(data[0:]) != shpFileCode {
		return nil, fmt.Errorf("noa: bad shapefile code")
	}
	if binary.LittleEndian.Uint32(data[32:]) != shpTypePolygon {
		return nil, fmt.Errorf("noa: only polygon shapefiles are supported")
	}
	var out []geo.Geometry
	off := 100
	for off+8 <= len(data) {
		contentWords := int(binary.BigEndian.Uint32(data[off+4:]))
		off += 8
		if off+contentWords*2 > len(data) {
			return nil, fmt.Errorf("noa: truncated record at %d", off)
		}
		payload := data[off : off+contentWords*2]
		off += contentWords * 2
		if binary.LittleEndian.Uint32(payload[0:]) != shpTypePolygon {
			continue
		}
		nParts := int(binary.LittleEndian.Uint32(payload[36:]))
		nPoints := int(binary.LittleEndian.Uint32(payload[40:]))
		partIdx := make([]int, nParts+1)
		for i := 0; i < nParts; i++ {
			partIdx[i] = int(binary.LittleEndian.Uint32(payload[44+4*i:]))
		}
		partIdx[nParts] = nPoints
		ptsOff := 44 + 4*nParts
		getF := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(payload[ptsOff+8*i:]))
		}
		var polys []geo.Polygon
		for p := 0; p < nParts; p++ {
			var ring []geo.Point
			for i := partIdx[p]; i < partIdx[p+1]; i++ {
				ring = append(ring, geo.Point{X: getF(2 * i), Y: getF(2*i + 1)})
			}
			if len(ring) >= 4 {
				polys = append(polys, geo.NewPolygon(geo.Ring{Coords: ring}))
			}
		}
		switch len(polys) {
		case 0:
		case 1:
			out = append(out, polys[0])
		default:
			out = append(out, geo.MultiPolygon{Polygons: polys})
		}
	}
	return out, nil
}
