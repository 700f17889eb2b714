package noa

import (
	"fmt"

	"repro/internal/stsparql"
)

// Scenario 2 of the demo: improving the thematic accuracy of the hotspot
// products. Low-resolution SEVIRI pixels straddle the coastline, so the
// chain reports hotspots in the sea; the refinement compares hotspot
// geometries with the coastline layer (available as linked data) using
// stSPARQL UPDATE statements and (a) reclassifies hotspots that are
// entirely off-land, (b) clips partially-off-land geometries to the
// landmass.

// RefineStats summarises one refinement run.
type RefineStats struct {
	// Total hotspots examined.
	Total int
	// Rejected hotspots (entirely off the landmass).
	Rejected int
	// Clipped hotspots (geometry replaced by its landmass intersection).
	Clipped int
}

// RefinementUpdates returns the stSPARQL UPDATE statements of the
// refinement, in execution order — the statements the demo shows the user.
func RefinementUpdates() []string {
	const prefixes = `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		PREFIX coast: <http://geo.linkedopendata.gr/coastline/>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
	`
	return []string{
		// (a) Hotspots disjoint from the landmass are sensor artefacts:
		// retype them, keeping provenance.
		prefixes + `
		DELETE { ?h a mon:Hotspot }
		INSERT { ?h a mon:RejectedHotspot }
		WHERE {
			?h a mon:Hotspot .
			?h noa:hasGeometry ?g .
			?land a coast:Landmass .
			?land noa:hasGeometry ?lg .
			FILTER(strdf:disjoint(?g, ?lg))
		}`,
		// (b) Hotspots straddling the coastline keep only their on-land
		// part and are marked refined.
		prefixes + `
		DELETE { ?h noa:hasGeometry ?g }
		INSERT { ?h noa:hasGeometry ?ng . ?h a mon:RefinedHotspot }
		WHERE {
			?h a mon:Hotspot .
			?h noa:hasGeometry ?g .
			?land a coast:Landmass .
			?land noa:hasGeometry ?lg .
			FILTER(strdf:intersects(?g, ?lg) && !strdf:within(?g, ?lg))
			BIND(strdf:intersection(?g, ?lg) AS ?ng)
			FILTER(BOUND(?ng))
		}`,
	}
}

// Refine runs the refinement updates against an engine whose store holds
// hotspot triples and the coastline layer (linkeddata.Coastline). It
// returns per-step statistics.
func Refine(eng *stsparql.Engine) (RefineStats, error) {
	var stats RefineStats
	pre, err := countHotspots(eng)
	if err != nil {
		return stats, err
	}
	stats.Total = pre
	updates := RefinementUpdates()
	resA, err := eng.Query(updates[0])
	if err != nil {
		return stats, fmt.Errorf("noa: refine step a: %w", err)
	}
	// Each rejected hotspot contributes one delete + one insert.
	stats.Rejected = resA.Affected / 2
	resB, err := eng.Query(updates[1])
	if err != nil {
		return stats, fmt.Errorf("noa: refine step b: %w", err)
	}
	// Each clipped hotspot contributes one delete + two inserts.
	stats.Clipped = resB.Affected / 3
	return stats, nil
}

func countHotspots(eng *stsparql.Engine) (int, error) {
	res, err := eng.Query(`
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		SELECT (COUNT(*) AS ?n) WHERE { ?h a mon:Hotspot }`)
	if err != nil {
		return 0, err
	}
	if len(res.Bindings) != 1 {
		return 0, fmt.Errorf("noa: unexpected count result")
	}
	var n int
	if _, err := fmt.Sscanf(res.Bindings[0]["n"].Value, "%d", &n); err != nil {
		return 0, err
	}
	return n, nil
}
