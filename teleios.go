// Package teleios is the public API of the TELEIOS Virtual Earth
// Observatory reproduction (Koubarakis et al., VLDB 2012): a
// database-powered Earth-observation platform combining a SciQL array
// engine over a columnar kernel, the Strabon geospatial RDF store queried
// with stSPARQL, a Data Vault over external satellite archives, and the
// NOA fire-monitoring application (hotspot chain, thematic refinement,
// fire maps).
//
// Quickstart:
//
//	obs := teleios.Open(teleios.Options{LoadLinkedData: true})
//	teleios.GenerateArchive(dir, 128, 128, 4)   // synthetic SEVIRI feed
//	obs.AttachRepository(dir)
//	product, _ := obs.RunChain(obs.Products()[0])
//	obs.Refine()
//	m, _ := obs.FireMap(30000)
//
// See the examples/ directory for complete programs, and
// cmd/teleios-server for the stSPARQL HTTP endpoint (internal/endpoint)
// that makes the observatory web-accessible.
package teleios

import (
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/noa"
	"repro/internal/stsparql"
)

// Observatory is a Virtual Earth Observatory instance; see
// internal/core.Observatory for the full method set.
type Observatory = core.Observatory

// Options configure Open.
type Options = core.Options

// Product is one processing-chain output.
type Product = noa.Product

// Hotspot is one detected fire region.
type Hotspot = noa.Hotspot

// FireMap is a layered map document.
type FireMap = noa.FireMap

// RefineStats summarises a refinement run.
type RefineStats = noa.RefineStats

// QueryResult is an stSPARQL result.
type QueryResult = stsparql.Result

// Envelope is a geographic bounding box (WGS84 lon/lat degrees).
type Envelope = geo.Envelope

// Open creates an Observatory.
func Open(opts Options) *Observatory { return core.New(opts) }

// GenerateArchive writes a synthetic SEVIRI archive into dir.
func GenerateArchive(dir string, width, height, steps int) ([]string, error) {
	return core.GenerateArchive(dir, width, height, steps)
}

// ArrayPrefix converts a product ID to the SciQL identifier prefix its
// ingested band arrays are registered under.
func ArrayPrefix(id string) string { return core.ArrayPrefix(id) }

// Region is the demo's area of interest (the synthetic Greek scene).
var Region = Envelope{MinX: 21, MinY: 36, MaxX: 27, MaxY: 40}
