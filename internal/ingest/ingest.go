// Package ingest implements the ingestion tier of the Virtual Earth
// Observatory (Figure 2 of the paper): converting external satellite
// products into database arrays the DBMS can optimise over, cropping to
// the area of interest, georeferencing onto a target grid, cutting images
// into square patches with feature vectors, and extracting catalogue
// metadata as stRDF.
package ingest

import (
	"fmt"
	"math"
	"time"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/sciql"
	"repro/internal/strdf"
)

// NOA vocabulary IRIs used by the metadata extractor.
const (
	NS            = "http://teleios.di.uoa.gr/noa#"
	ClassProduct  = NS + "Product"
	PropSatellite = NS + "satellite"
	PropSensor    = NS + "sensor"
	PropAcquired  = NS + "acquiredAt"
	PropCoverage  = NS + "coverage"
	PropBand      = NS + "hasBand"
	PropWidth     = NS + "width"
	PropHeight    = NS + "height"
)

// RegisterFrame loads every band of a frame into the SciQL engine as a
// 2D array named "<prefix>_<band>" with dimensions (y, x) and value "v".
// This is the "image as first-class array" step: after registration the
// processing chain manipulates the image declaratively.
func RegisterFrame(eng *sciql.Engine, prefix string, f *raster.Frame) error {
	for band, img := range f.Bands {
		name := fmt.Sprintf("%s_%s", prefix, band)
		plane := img.Clone()
		plane.Name = "v"
		if err := eng.RegisterArray(name, img.Dims, map[string]*array.Array{"v": plane}); err != nil {
			return fmt.Errorf("ingest: registering %s: %w", name, err)
		}
	}
	return nil
}

// Crop cuts a geographic window out of a band, returning the cropped
// image and the georeference of the result. Rows/cols outside the frame
// are clamped.
func Crop(f *raster.Frame, band raster.Band, window geo.Envelope) (*array.Array, raster.GeoRef, error) {
	img, err := f.Band(band)
	if err != nil {
		return nil, raster.GeoRef{}, err
	}
	if !window.Intersects(f.Envelope()) {
		return nil, raster.GeoRef{}, fmt.Errorf("ingest: crop window %+v misses frame %s", window, f.ID)
	}
	gr := f.GeoRef
	r0, c0 := gr.LonLatToPixel(geo.Point{X: window.MinX, Y: window.MaxY})
	r1, c1 := gr.LonLatToPixel(geo.Point{X: window.MaxX, Y: window.MinY})
	h, w := img.Height(), img.Width()
	r0, c0 = clampInt(r0, 0, h-1), clampInt(c0, 0, w-1)
	r1, c1 = clampInt(r1, 0, h-1), clampInt(c1, 0, w-1)
	if r1 < r0 || c1 < c0 {
		return nil, raster.GeoRef{}, fmt.Errorf("ingest: crop window misses the frame")
	}
	out, err := img.Slice([]int{r0, c0}, []int{r1 + 1, c1 + 1})
	if err != nil {
		return nil, raster.GeoRef{}, err
	}
	cropRef := raster.GeoRef{
		OriginX: gr.OriginX + float64(c0)*gr.DX,
		OriginY: gr.OriginY - float64(r0)*gr.DY,
		DX:      gr.DX, DY: gr.DY, SRID: gr.SRID,
	}
	return out, cropRef, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Georeference resamples an image from its source georeference onto a
// target grid (the demo's georeferencing step: SEVIRI geometry onto the
// product grid). Cells whose source location falls outside the input are
// null.
func Georeference(img *array.Array, src raster.GeoRef, dst raster.GeoRef, dstH, dstW int) (*array.Array, error) {
	if len(img.Dims) != 2 {
		return nil, fmt.Errorf("ingest: georeference needs a rank-2 image")
	}
	out := array.MustNew(img.Name,
		array.Dim{Name: "y", Size: dstH},
		array.Dim{Name: "x", Size: dstW})
	h, w := img.Height(), img.Width()
	// Rows resample tile-parallel; the null mask is preallocated so the
	// workers never race on its lazy construction, and dropped again when
	// every destination cell found a source.
	out.Null = make([]bool, len(out.Data))
	parallel.Range(dstH, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < dstW; x++ {
				p := dst.PixelToLonLat(y, x)
				r, c := src.LonLatToPixel(p)
				if r < 0 || r >= h || c < 0 || c >= w {
					out.Null[y*dstW+x] = true
					continue
				}
				out.Data[y*dstW+x] = img.Data[r*w+c]
			}
		}
	})
	anyNull := false
	for _, isNull := range out.Null {
		if isNull {
			anyNull = true
			break
		}
	}
	if !anyNull {
		out.Null = nil
	}
	return out, nil
}

// PatchFeatures is the feature vector of one square image patch — the
// compact multi-element representation the content-extraction components
// produce for image mining.
type PatchFeatures struct {
	// Row and Col locate the patch in patch grid coordinates.
	Row, Col int
	// Mean, StdDev, Min, Max summarise intensities.
	Mean, StdDev, Min, Max float64
	// Texture is a gradient-energy measure (mean absolute difference of
	// horizontal neighbours), a cheap GLCM stand-in.
	Texture float64
	// Histogram is a fixed 8-bin intensity histogram, normalised.
	Histogram [8]float64
}

// AppendVector appends the features to buf, flattened for distance
// computations; callers reuse buf per worker. The layout (mean, stddev,
// min, max, texture, 8 histogram bins) is defined only here.
func (p PatchFeatures) AppendVector(buf []float64) []float64 {
	buf = append(buf, p.Mean, p.StdDev, p.Min, p.Max, p.Texture)
	return append(buf, p.Histogram[:]...)
}

// ExtractPatches cuts a rank-2 image into size x size patches and computes
// the feature vector of each. Partial border patches are included. Patch
// rows are processed tile-parallel on the shared worker pool; the output
// order (row-major over the patch grid) is unchanged.
func ExtractPatches(img *array.Array, size int) ([]PatchFeatures, error) {
	if len(img.Dims) != 2 {
		return nil, fmt.Errorf("ingest: patch extraction needs a rank-2 image")
	}
	if size <= 0 {
		return nil, fmt.Errorf("ingest: patch size must be positive")
	}
	h, w := img.Height(), img.Width()
	lo, hi, _ := img.MinMax()
	if hi <= lo {
		hi = lo + 1
	}
	binScale := 8 / (hi - lo)
	rows := (h + size - 1) / size
	cols := (w + size - 1) / size
	grid := make([]PatchFeatures, rows*cols)
	valid := make([]bool, rows*cols)
	parallel.Range(rows, func(py0, py1 int) {
		for py := py0; py < py1; py++ {
			for px := 0; px < cols; px++ {
				pf := PatchFeatures{Row: py, Col: px}
				var sum, sumSq, tex float64
				var n, tn int
				min, max := 1e308, -1e308
				yEnd := (py + 1) * size
				if yEnd > h {
					yEnd = h
				}
				xStart := px * size
				xEnd := xStart + size
				if xEnd > w {
					xEnd = w
				}
				for y := py * size; y < yEnd; y++ {
					seg := img.Data[y*w+xStart : y*w+xEnd]
					if img.Null == nil {
						for i, v := range seg {
							sum += v
							sumSq += v * v
							if v < min {
								min = v
							}
							if v > max {
								max = v
							}
							bin := int((v - lo) * binScale)
							if uint(bin) > 7 {
								if bin < 0 {
									bin = 0
								} else {
									bin = 7
								}
							}
							pf.Histogram[bin]++
							if i+1 < len(seg) {
								d := seg[i+1] - v
								if d < 0 {
									d = -d
								}
								tex += d
							}
						}
						n += len(seg)
						tn += len(seg) - 1
						continue
					}
					nulls := img.Null[y*w+xStart : y*w+xEnd]
					for i, v := range seg {
						if nulls[i] {
							continue
						}
						sum += v
						sumSq += v * v
						n++
						if v < min {
							min = v
						}
						if v > max {
							max = v
						}
						bin := int((v - lo) * binScale)
						if uint(bin) > 7 {
							if bin < 0 {
								bin = 0
							} else {
								bin = 7
							}
						}
						pf.Histogram[bin]++
						if i+1 < len(seg) && !nulls[i+1] {
							d := seg[i+1] - v
							if d < 0 {
								d = -d
							}
							tex += d
							tn++
						}
					}
				}
				if n == 0 {
					continue
				}
				pf.Mean = sum / float64(n)
				variance := sumSq/float64(n) - pf.Mean*pf.Mean
				if variance < 0 {
					variance = 0
				}
				pf.StdDev = math.Sqrt(variance)
				pf.Min, pf.Max = min, max
				if tn > 0 {
					pf.Texture = tex / float64(tn)
				}
				for i := range pf.Histogram {
					pf.Histogram[i] /= float64(n)
				}
				grid[py*cols+px] = pf
				valid[py*cols+px] = true
			}
		}
	})
	out := make([]PatchFeatures, 0, rows*cols)
	for i, ok := range valid {
		if ok {
			out = append(out, grid[i])
		}
	}
	return out, nil
}

// ExtractMetadata produces the stRDF catalogue triples for a frame: type,
// platform, acquisition time, geographic coverage (a WKT polygon), bands
// and grid shape. These are the "image metadata" Strabon serves.
func ExtractMetadata(f *raster.Frame) []rdf.Triple {
	subject := rdf.IRI(NS + "product/" + f.ID)
	env := f.Envelope()
	var out []rdf.Triple
	add := func(p string, o rdf.Term) {
		out = append(out, rdf.NewTriple(subject, rdf.IRI(p), o))
	}
	out = append(out, rdf.NewTriple(subject, rdf.IRI(rdf.RDFType), rdf.IRI(ClassProduct)))
	add(PropSatellite, rdf.Literal(f.Satellite))
	add(PropSensor, rdf.Literal(f.Sensor))
	add(PropAcquired, rdf.TypedLiteral(f.Time.UTC().Format(time.RFC3339), rdf.XSDDateTime))
	add(PropCoverage, strdf.Literal(env.ToPolygon(), geo.SRIDWGS84))
	for band := range f.Bands {
		add(PropBand, rdf.Literal(string(band)))
	}
	for _, img := range f.Bands {
		add(PropWidth, rdf.IntegerLiteral(int64(img.Width())))
		add(PropHeight, rdf.IntegerLiteral(int64(img.Height())))
		break
	}
	return out
}
