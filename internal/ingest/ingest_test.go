package ingest

import (
	"testing"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/sciql"
	"repro/internal/strdf"
)

func testFrame(t *testing.T) *raster.Frame {
	t.Helper()
	return raster.Generate(raster.GenOptions{Width: 64, Height: 64, Steps: 1})[0]
}

func TestRegisterFrame(t *testing.T) {
	f := testFrame(t)
	eng := sciql.NewEngine()
	if err := RegisterFrame(eng, "img", f); err != nil {
		t.Fatal(err)
	}
	for _, band := range []string{"IR_039", "IR_108", "VIS006"} {
		a, err := eng.Array("img_" + band)
		if err != nil {
			t.Fatalf("band %s: %v", band, err)
		}
		if a.Size() != 64*64 {
			t.Fatalf("band %s size = %d", band, a.Size())
		}
	}
	// The registered array is queryable.
	res := eng.MustExec(`SELECT count(*) AS n FROM img_IR_039 WHERE v > 0`).Table
	if res.Col("n").Int(0) != 64*64 {
		t.Fatal("all temperatures should be positive")
	}
}

func TestCrop(t *testing.T) {
	f := testFrame(t)
	window := geo.Envelope{MinX: 22, MinY: 37, MaxX: 25, MaxY: 39}
	img, gr, err := Crop(f, raster.BandIR39, window)
	if err != nil {
		t.Fatal(err)
	}
	if img.Height() >= 64 || img.Width() >= 64 {
		t.Fatalf("crop did not shrink: %dx%d", img.Height(), img.Width())
	}
	// The crop's georeference covers the window (within a pixel).
	if gr.OriginX > window.MinX+f.GeoRef.DX || gr.OriginY < window.MaxY-f.GeoRef.DY {
		t.Fatalf("crop georef = %+v", gr)
	}
	// Pixel values come from the right place.
	p := gr.PixelToLonLat(0, 0)
	srcR, srcC := f.GeoRef.LonLatToPixel(p)
	src, _ := f.Band(raster.BandIR39)
	if img.At2(0, 0) != src.At2(srcR, srcC) {
		t.Fatal("crop misaligned")
	}
	// A window outside the frame errors.
	if _, _, err := Crop(f, raster.BandIR39, geo.Envelope{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101}); err == nil {
		t.Fatal("miss should error")
	}
	// Unknown band errors.
	if _, _, err := Crop(f, raster.Band("NOPE"), window); err == nil {
		t.Fatal("unknown band should error")
	}
}

func TestGeoreference(t *testing.T) {
	f := testFrame(t)
	src, _ := f.Band(raster.BandIR39)
	// Identity target grid reproduces the source.
	out, err := Georeference(src, f.GeoRef, f.GeoRef, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Data {
		if !out.IsNull(i) && out.Data[i] != src.Data[i] {
			t.Fatalf("identity georeference changed cell %d", i)
		}
	}
	// A shifted grid marks out-of-source cells null.
	shifted := f.GeoRef
	shifted.OriginX -= 3 // 3 degrees west of the source
	out2, err := Georeference(src, f.GeoRef, shifted, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for i := range out2.Data {
		if out2.IsNull(i) {
			nulls++
		}
	}
	if nulls == 0 {
		t.Fatal("shifted grid should have null border")
	}
	// Rank check.
	bad := array.MustNew("v", array.Dim{Name: "x", Size: 4})
	if _, err := Georeference(bad, f.GeoRef, f.GeoRef, 4, 4); err == nil {
		t.Fatal("rank-1 input should error")
	}
}

func TestExtractPatches(t *testing.T) {
	img := array.MustNew("img", array.Dim{Name: "y", Size: 8}, array.Dim{Name: "x", Size: 8})
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			img.Set2(y, x, float64(y*8+x))
		}
	}
	patches, err := ExtractPatches(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) != 4 {
		t.Fatalf("patches = %d", len(patches))
	}
	// First patch (rows 0-3, cols 0-3): mean of {y*8+x} = mean(y)*8+mean(x)
	// = 1.5*8+1.5 = 13.5.
	if patches[0].Mean != 13.5 {
		t.Fatalf("mean = %g", patches[0].Mean)
	}
	if patches[0].Min != 0 || patches[0].Max != 27 {
		t.Fatalf("min/max = %g/%g", patches[0].Min, patches[0].Max)
	}
	// Horizontal gradient is 1 everywhere.
	if patches[0].Texture != 1 {
		t.Fatalf("texture = %g", patches[0].Texture)
	}
	// Histogram sums to 1.
	var sum float64
	for _, h := range patches[0].Histogram {
		sum += h
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("histogram sum = %g", sum)
	}
	// The feature vector is 5 + 8 long.
	if v := patches[0].AppendVector(nil); len(v) != 13 {
		t.Fatalf("vector len = %d", len(v))
	}
	// Errors.
	if _, err := ExtractPatches(img, 0); err == nil {
		t.Fatal("zero patch size")
	}
	one := array.MustNew("v", array.Dim{Name: "x", Size: 4})
	if _, err := ExtractPatches(one, 2); err == nil {
		t.Fatal("rank-1 input")
	}
}

func TestExtractPatchesRaggedAndNull(t *testing.T) {
	img := array.MustNew("img", array.Dim{Name: "y", Size: 5}, array.Dim{Name: "x", Size: 5})
	patches, err := ExtractPatches(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 patch grid despite 5x5 input.
	if len(patches) != 4 {
		t.Fatalf("ragged patches = %d", len(patches))
	}
	// An all-null patch is skipped.
	img2 := array.MustNew("img", array.Dim{Name: "y", Size: 4}, array.Dim{Name: "x", Size: 8})
	for y := 0; y < 4; y++ {
		for x := 4; x < 8; x++ {
			if err := img2.SetNull(y, x); err != nil {
				t.Fatal(err)
			}
		}
	}
	p2, err := ExtractPatches(img2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 1 {
		t.Fatalf("null patch not skipped: %d", len(p2))
	}
}

func TestExtractMetadata(t *testing.T) {
	f := testFrame(t)
	triples := ExtractMetadata(f)
	if len(triples) == 0 {
		t.Fatal("no metadata")
	}
	var sawType, sawCoverage, sawTime bool
	for _, tr := range triples {
		switch tr.P.Value {
		case rdf.RDFType:
			if tr.O.Value != ClassProduct {
				t.Fatalf("type = %v", tr.O)
			}
			sawType = true
		case PropCoverage:
			v, err := strdf.ParseSpatial(tr.O)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Geom.Envelope().Intersects(scene.Region) {
				t.Fatal("coverage misses region")
			}
			sawCoverage = true
		case PropAcquired:
			if tr.O.Datatype != rdf.XSDDateTime {
				t.Fatal("acquired datatype")
			}
			sawTime = true
		}
	}
	if !sawType || !sawCoverage || !sawTime {
		t.Fatalf("missing metadata: type=%v coverage=%v time=%v", sawType, sawCoverage, sawTime)
	}
	// Bands listed.
	bands := 0
	for _, tr := range triples {
		if tr.P.Value == PropBand {
			bands++
		}
	}
	if bands != 3 {
		t.Fatalf("bands = %d", bands)
	}
}
