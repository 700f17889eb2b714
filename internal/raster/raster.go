// Package raster implements the synthetic MSG/SEVIRI substrate: multiband
// brightness-temperature rasters with acquisition metadata and an affine
// georeference, a deterministic scene generator seeding the demo's fire
// events, and the binary ".sev" file format the Data Vault ingests.
//
// The real SEVIRI feed is proprietary; this generator produces frames with
// the same structure (IR brightness temperatures, 15-minute repeat cycle,
// coastal mixed pixels) so the NOA chain exercises identical code paths.
package raster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/scene"
)

// Band identifies a spectral channel. The hotspot chain uses the two
// SEVIRI thermal channels.
type Band string

// SEVIRI channels used by the NOA fire product.
const (
	BandIR39  Band = "IR_039" // 3.9 um: fire-sensitive
	BandIR108 Band = "IR_108" // 10.8 um: background surface temperature
	BandVIS06 Band = "VIS006" // 0.6 um: visible (daytime context)
)

// GeoRef is an affine mapping from pixel (row, col) centres to WGS84
// (lon, lat): lon = OriginX + (col+0.5)*DX, lat = OriginY - (row+0.5)*DY.
type GeoRef struct {
	OriginX, OriginY float64 // top-left corner
	DX, DY           float64 // pixel sizes in degrees (both positive)
	SRID             geo.SRID
}

// PixelToLonLat maps a pixel centre to geographic coordinates.
func (g GeoRef) PixelToLonLat(row, col int) geo.Point {
	return geo.Point{
		X: g.OriginX + (float64(col)+0.5)*g.DX,
		Y: g.OriginY - (float64(row)+0.5)*g.DY,
	}
}

// LonLatToPixel maps geographic coordinates to the containing pixel.
func (g GeoRef) LonLatToPixel(p geo.Point) (row, col int) {
	col = int((p.X - g.OriginX) / g.DX)
	row = int((g.OriginY - p.Y) / g.DY)
	return row, col
}

// PixelEnvelope returns the ground footprint of pixel (row, col) as a
// bounding box (the annotation fan-out calls this per patch corner).
func (g GeoRef) PixelEnvelope(row, col int) geo.Envelope {
	x0 := g.OriginX + float64(col)*g.DX
	y1 := g.OriginY - float64(row)*g.DY
	return geo.Envelope{MinX: x0, MinY: y1 - g.DY, MaxX: x0 + g.DX, MaxY: y1}
}

// Frame is one acquisition: a set of co-registered bands plus metadata.
type Frame struct {
	// ID is the product identifier (e.g. "MSG2-20070825-1200").
	ID string
	// Satellite and Sensor describe the platform.
	Satellite, Sensor string
	// Time is the acquisition timestamp.
	Time time.Time
	// GeoRef georeferences every band.
	GeoRef GeoRef
	// Bands maps channel to image.
	Bands map[Band]*array.Array
}

// Band returns the image for channel b, or an error.
func (f *Frame) Band(b Band) (*array.Array, error) {
	img, ok := f.Bands[b]
	if !ok {
		return nil, fmt.Errorf("raster: frame %s has no band %s", f.ID, b)
	}
	return img, nil
}

// Envelope reports the geographic bounding box of the frame.
func (f *Frame) Envelope() geo.Envelope {
	for _, img := range f.Bands {
		h, w := img.Height(), img.Width()
		tl := f.GeoRef.PixelToLonLat(0, 0)
		br := f.GeoRef.PixelToLonLat(h-1, w-1)
		return geo.EmptyEnvelope().
			ExtendPoint(tl.X-f.GeoRef.DX/2, tl.Y+f.GeoRef.DY/2).
			ExtendPoint(br.X+f.GeoRef.DX/2, br.Y-f.GeoRef.DY/2)
	}
	return geo.EmptyEnvelope()
}

// GenOptions parameterise the synthetic scene generator.
type GenOptions struct {
	// Width and Height give the pixel grid (SEVIRI over the region of
	// interest; the demo uses grids from 64^2 up to ~2048^2).
	Width, Height int
	// Steps is the number of 15-minute frames to generate.
	Steps int
	// Start is the acquisition time of frame 0.
	Start time.Time
	// Fires seeds the scenario; nil uses scene.FireEvents.
	Fires []scene.FireEvent
	// Seed perturbs the deterministic noise field.
	Seed uint64
}

// DefaultStart is the demo scenario epoch: 25 August 2007, the Peloponnese
// fires referenced in the paper's flagship query.
var DefaultStart = time.Date(2007, 8, 25, 12, 0, 0, 0, time.UTC)

func (o *GenOptions) fill() {
	if o.Width == 0 {
		o.Width = 128
	}
	if o.Height == 0 {
		o.Height = 128
	}
	if o.Steps == 0 {
		o.Steps = 1
	}
	if o.Start.IsZero() {
		o.Start = DefaultStart
	}
	if o.Fires == nil {
		o.Fires = scene.FireEvents()
	}
}

// Generate produces the synthetic frame sequence.
func Generate(opts GenOptions) []*Frame {
	opts.fill()
	gr := GeoRef{
		OriginX: scene.Region.MinX,
		OriginY: scene.Region.MaxY,
		DX:      scene.Region.Width() / float64(opts.Width),
		DY:      scene.Region.Height() / float64(opts.Height),
		SRID:    geo.SRIDWGS84,
	}
	frames := make([]*Frame, 0, opts.Steps)
	for step := 0; step < opts.Steps; step++ {
		ts := opts.Start.Add(time.Duration(step) * 15 * time.Minute)
		f := &Frame{
			ID:        fmt.Sprintf("MSG2-%s", ts.Format("20060102-1504")),
			Satellite: "Meteosat-9",
			Sensor:    "SEVIRI",
			Time:      ts,
			GeoRef:    gr,
			Bands:     map[Band]*array.Array{},
		}
		ir39 := array.MustNew("IR_039", array.Dim{Name: "y", Size: opts.Height}, array.Dim{Name: "x", Size: opts.Width})
		ir108 := array.MustNew("IR_108", array.Dim{Name: "y", Size: opts.Height}, array.Dim{Name: "x", Size: opts.Width})
		vis := array.MustNew("VIS006", array.Dim{Name: "y", Size: opts.Height}, array.Dim{Name: "x", Size: opts.Width})
		for y := 0; y < opts.Height; y++ {
			for x := 0; x < opts.Width; x++ {
				p := gr.PixelToLonLat(y, x)
				onLand := scene.OnLandAnalytic(p)
				// Diurnal background: land warmer and with a larger
				// diurnal swing than sea.
				hour := float64(ts.Hour()) + float64(ts.Minute())/60
				diurnal := math.Sin((hour - 6) / 24 * 2 * math.Pi)
				var base float64
				if onLand {
					base = 300 + 8*diurnal
				} else {
					base = 290 + 1.5*diurnal
				}
				// Terrain/noise texture (deterministic).
				n := noise2(x, y, opts.Seed)
				t108 := base + 2.5*n
				t39 := t108 + 1.0 + 0.5*noise2(x+7919, y+104729, opts.Seed)
				// Seeded fires raise the 3.9um channel strongly and the
				// 10.8um weakly, as real subpixel fires do.
				for _, fe := range opts.Fires {
					if step < fe.StartStep {
						continue
					}
					age := float64(step - fe.StartStep)
					radius := (0.5 + fe.Growth*age) * gr.DX * 1.2
					d := math.Hypot(p.X-fe.Loc.X, p.Y-fe.Loc.Y)
					if d < radius*3 {
						intensity := fe.PeakDT * math.Exp(-d*d/(2*radius*radius)) * (1 - math.Exp(-(age+1)/2))
						t39 += intensity
						t108 += intensity * 0.25
					}
				}
				ir39.Set2(y, x, t39)
				ir108.Set2(y, x, t108)
				if onLand {
					vis.Set2(y, x, 0.25+0.05*n)
				} else {
					vis.Set2(y, x, 0.06+0.01*n)
				}
			}
		}
		f.Bands[BandIR39] = ir39
		f.Bands[BandIR108] = ir108
		f.Bands[BandVIS06] = vis
		frames = append(frames, f)
	}
	return frames
}

// noise2 is a deterministic value-noise stand-in: a hash of the cell
// coordinates mapped to [-1, 1].
func noise2(x, y int, seed uint64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ (seed+1)*0x165667B19E3779F9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h%2000)/1000 - 1
}
