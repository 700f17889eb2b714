package noa

import (
	"encoding/binary"
	"io"
	"math"

	"repro/internal/geo"
)

// Minimal ESRI shapefile (.shp) writer and reader for polygon products —
// the container format of the NOA chain's deliverables ("generation of
// shapefiles containing the geometries of hotspots"). Only the Polygon
// shape type (5) is supported, which is all the chain emits.

const (
	shpFileCode    = 9994
	shpVersion     = 1000
	shpTypePolygon = 5
)

// WriteShapefile writes hotspot geometries as a polygon shapefile. Each
// hotspot becomes one record; multipolygon geometries emit all their
// parts as rings of a single record.
func WriteShapefile(w io.Writer, hotspots []Hotspot) error {
	// Assemble records first to compute lengths.
	type record struct {
		rings [][]geo.Point
		box   geo.Envelope
	}
	var records []record
	total := geo.EmptyEnvelope()
	for _, h := range hotspots {
		var rings [][]geo.Point
		for _, p := range polysOf(h.Geometry) {
			// Shapefile outer rings are clockwise.
			ext := p.Exterior
			if ext.IsCCW() {
				ext = ext.Reverse()
			}
			rings = append(rings, ext.Coords)
			for _, hole := range p.Holes {
				hr := hole
				if !hr.IsCCW() {
					hr = hr.Reverse()
				}
				rings = append(rings, hr.Coords)
			}
		}
		if len(rings) == 0 {
			continue
		}
		rec := record{rings: rings, box: h.Geometry.Envelope()}
		records = append(records, rec)
		total = total.Extend(rec.box)
	}
	// Record payload sizes (in 16-bit words, per the spec).
	recSizes := make([]int, len(records))
	fileWords := 50 // 100-byte header
	for i, r := range records {
		nPoints := 0
		for _, ring := range r.rings {
			nPoints += len(ring)
		}
		// type(4) + box(32) + numParts(4) + numPoints(4) + parts + points
		bytes := 4 + 32 + 4 + 4 + 4*len(r.rings) + 16*nPoints
		recSizes[i] = bytes / 2
		fileWords += 4 + recSizes[i] // 8-byte record header
	}
	// Main header: big-endian file code and length, little-endian version.
	var hdr [100]byte
	binary.BigEndian.PutUint32(hdr[0:], shpFileCode)
	binary.BigEndian.PutUint32(hdr[24:], uint32(fileWords))
	binary.LittleEndian.PutUint32(hdr[28:], shpVersion)
	binary.LittleEndian.PutUint32(hdr[32:], shpTypePolygon)
	putF64 := func(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
	if total.IsEmpty() {
		total = geo.Envelope{}
	}
	putF64(hdr[36:], total.MinX)
	putF64(hdr[44:], total.MinY)
	putF64(hdr[52:], total.MaxX)
	putF64(hdr[60:], total.MaxY)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i, r := range records {
		var rh [8]byte
		binary.BigEndian.PutUint32(rh[0:], uint32(i+1))
		binary.BigEndian.PutUint32(rh[4:], uint32(recSizes[i]))
		if _, err := w.Write(rh[:]); err != nil {
			return err
		}
		payload := make([]byte, recSizes[i]*2)
		binary.LittleEndian.PutUint32(payload[0:], shpTypePolygon)
		putF64(payload[4:], r.box.MinX)
		putF64(payload[12:], r.box.MinY)
		putF64(payload[20:], r.box.MaxX)
		putF64(payload[28:], r.box.MaxY)
		binary.LittleEndian.PutUint32(payload[36:], uint32(len(r.rings)))
		nPoints := 0
		for _, ring := range r.rings {
			nPoints += len(ring)
		}
		binary.LittleEndian.PutUint32(payload[40:], uint32(nPoints))
		off := 44
		idx := 0
		for _, ring := range r.rings {
			binary.LittleEndian.PutUint32(payload[off:], uint32(idx))
			off += 4
			idx += len(ring)
		}
		for _, ring := range r.rings {
			for _, p := range ring {
				putF64(payload[off:], p.X)
				putF64(payload[off+8:], p.Y)
				off += 16
			}
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func polysOf(g geo.Geometry) []geo.Polygon {
	switch t := g.(type) {
	case geo.Polygon:
		if t.IsEmpty() {
			return nil
		}
		return []geo.Polygon{t}
	case geo.MultiPolygon:
		return t.Polygons
	case geo.GeometryCollection:
		var out []geo.Polygon
		for _, m := range t.Geometries {
			out = append(out, polysOf(m)...)
		}
		return out
	}
	return nil
}
