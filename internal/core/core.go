// Package core implements the TELEIOS Virtual Earth Observatory: the
// four-tier architecture of Figure 2 wired into one object. The ingestion
// tier converts external satellite products into database arrays and
// metadata; the database tier is the SciQL engine (over the columnar
// kernel) plus the Strabon store queried with stSPARQL; the service tier
// offers the NOA rapid-mapping operations (processing chain, refinement,
// fire maps) and semantic annotation; applications sit on the public
// facade (package teleios at the module root).
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/column"
	"repro/internal/fsx"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/kdd"
	"repro/internal/linkeddata"
	"repro/internal/noa"
	"repro/internal/ontology"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/sciql"
	"repro/internal/strabon"
	"repro/internal/stsparql"
	"repro/internal/vault"
)

// Observatory is one Virtual Earth Observatory instance. It is safe for
// concurrent queries; ingestion and updates must be serialised by the
// caller (the NOA pipeline is single-writer).
type Observatory struct {
	vault    *vault.Vault
	sciql    *sciql.Engine
	store    *strabon.Store
	sparql   *stsparql.Engine
	chain    noa.Chain
	knnModel *kdd.KNNClassifier
}

// Options configure a new Observatory.
type Options struct {
	// Window is the chain's area of interest; the zero value uses the
	// whole scene region of the synthetic archive.
	Window geo.Envelope
	// LoadLinkedData preloads the auxiliary linked open data (GeoNames,
	// LinkedGeoData, CORINE, coastline, ontologies).
	LoadLinkedData bool
}

// New creates an Observatory.
func New(opts Options) *Observatory {
	if opts.Window.IsEmpty() || opts.Window == (geo.Envelope{}) {
		opts.Window = geo.Envelope{MinX: 21, MinY: 36, MaxX: 27, MaxY: 40}
	}
	store := strabon.NewStore()
	o := &Observatory{
		vault:    vault.New(),
		sciql:    sciql.NewEngine(),
		store:    store,
		sparql:   stsparql.New(store),
		chain:    noa.DefaultChain(opts.Window),
		knnModel: kdd.TrainLandCoverModel(),
	}
	if opts.LoadLinkedData {
		o.store.AddAll(linkeddata.All())
	}
	return o
}

// AttachRepository catalogues an external file repository through the
// Data Vault. Payloads are ingested lazily, on first query touch.
func (o *Observatory) AttachRepository(dir string) error {
	return o.vault.Attach(dir)
}

// Products returns the catalogued product IDs in acquisition order.
func (o *Observatory) Products() []string { return o.vault.IDs() }

// Catalog returns the vault catalogue as a relational table and registers
// it in the SciQL engine as "catalog".
func (o *Observatory) Catalog() *column.Table {
	t := o.vault.Catalog()
	o.sciql.RegisterTable(t)
	return t
}

// Ingest pulls one product through the ingestion tier: band arrays into
// the SciQL engine (named "<id>_<band>") and catalogue metadata into the
// Strabon store. It returns the decoded frame.
func (o *Observatory) Ingest(id string) (*raster.Frame, error) {
	f, err := o.vault.Frame(id)
	if err != nil {
		return nil, err
	}
	if err := ingest.RegisterFrame(o.sciql, ArrayPrefix(id), f); err != nil {
		return nil, err
	}
	o.store.AddAll(ingest.ExtractMetadata(f))
	return f, nil
}

// RunChain executes the NOA processing chain on a product and stores the
// resulting hotspot triples.
func (o *Observatory) RunChain(id string) (*noa.Product, error) {
	f, err := o.vault.Frame(id)
	if err != nil {
		return nil, err
	}
	p, err := o.chain.Run(f)
	if err != nil {
		return nil, err
	}
	noa.StoreProduct(o.sparql, p)
	return p, nil
}

// SetChain replaces the chain configuration (the demo compares chains
// with different classification submodules this way).
func (o *Observatory) SetChain(c noa.Chain) { o.chain = c }

// Chain returns the current chain configuration.
func (o *Observatory) Chain() noa.Chain { return o.chain }

// Refine runs the Scenario 2 thematic-accuracy refinement over all stored
// hotspots.
func (o *Observatory) Refine() (noa.RefineStats, error) {
	return noa.Refine(o.sparql)
}

// FireMap builds the enriched fire map from the current store state.
func (o *Observatory) FireMap(radiusMeters float64) (*noa.FireMap, error) {
	return noa.BuildFireMap(o.sparql, radiusMeters)
}

// Annotate runs the semantic annotation of one product's IR image: patch
// features are classified against the land-cover/monitoring ontologies
// and the annotations stored as linked data. It returns the number of
// annotations.
func (o *Observatory) Annotate(id string, patchSize int) (int, error) {
	f, err := o.vault.Frame(id)
	if err != nil {
		return 0, err
	}
	img, err := f.Band(raster.BandIR39)
	if err != nil {
		return 0, err
	}
	productIRI := noa.ProductIRI(id).Value
	anns, err := kdd.AnnotatePatches(productIRI, img, f.GeoRef, patchSize, o.knnModel, 0.5)
	if err != nil {
		return 0, err
	}
	for i, a := range anns {
		o.store.AddAll(a.Triples(i))
	}
	return len(anns), nil
}

// ArrayPrefix converts a product ID to the SciQL identifier prefix its
// band arrays are registered under (non-identifier characters become '_').
func ArrayPrefix(id string) string {
	b := []byte(id)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// SciQL executes a SciQL statement against the database tier.
func (o *Observatory) SciQL(stmt string) (*sciql.Result, error) {
	return o.sciql.Exec(stmt)
}

// StSPARQL executes an stSPARQL statement against the Strabon store.
func (o *Observatory) StSPARQL(query string) (*stsparql.Result, error) {
	return o.sparql.Query(query)
}

// SciQLEngine exposes the SciQL engine for advanced use.
//
//lint:allow unusedexport(public API: embedders reach it through teleios.Observatory)
func (o *Observatory) SciQLEngine() *sciql.Engine { return o.sciql }

// SPARQLEngine exposes the stSPARQL engine for advanced use.
//
//lint:allow unusedexport(public API: embedders reach it through teleios.Observatory)
func (o *Observatory) SPARQLEngine() *stsparql.Engine { return o.sparql }

// Store exposes the Strabon store.
func (o *Observatory) Store() *strabon.Store { return o.store }

// Vault exposes the Data Vault.
func (o *Observatory) Vault() *vault.Vault { return o.vault }

// Ontologies returns the built-in domain ontologies.
func (o *Observatory) Ontologies() (landCover, monitoring *ontology.Ontology) {
	return ontology.LandCoverOntology(), ontology.MonitoringOntology()
}

// WriteShapefile writes a product's hotspots as an ESRI polygon
// shapefile.
func (o *Observatory) WriteShapefile(w io.Writer, p *noa.Product) error {
	return noa.WriteShapefile(w, p.Hotspots)
}

// Stats summarises the observatory state.
type Stats struct {
	Vault vault.Stats
	Store strabon.Stats
}

// Stats returns a snapshot across tiers.
func (o *Observatory) Stats() Stats {
	return Stats{Vault: o.vault.Stats(), Store: o.store.Stats()}
}

// storeFile is the N-Triples export SaveStore writes and LoadStore reads.
// (Durable serving state lives in a teleios-server -data-dir; this is an
// interchange file, loadable there with -nt.)
const storeFile = "triples.nt"

// SaveStore exports the Strabon store to dir as N-Triples, atomically.
func (o *Observatory) SaveStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	triples := o.store.Triples()
	return fsx.WriteFileAtomic(filepath.Join(dir, storeFile), func(w io.Writer) error {
		return rdf.WriteNTriples(w, triples)
	})
}

// LoadStore replaces the Strabon store with one previously exported by
// SaveStore; the stSPARQL engine is rebound to it.
func (o *Observatory) LoadStore(dir string) error {
	f, err := os.Open(filepath.Join(dir, storeFile))
	if err != nil {
		return err
	}
	defer f.Close()
	st := strabon.NewStore()
	if _, err := st.LoadNTriples(f); err != nil {
		return err
	}
	o.store = st
	o.sparql = stsparql.New(st)
	return nil
}

// GenerateArchive writes a synthetic SEVIRI archive (the stand-in for the
// proprietary MSG feed) into dir: steps frames of size width x height.
func GenerateArchive(dir string, width, height, steps int) ([]string, error) {
	frames := raster.Generate(raster.GenOptions{Width: width, Height: height, Steps: steps})
	ids := make([]string, 0, len(frames))
	for _, f := range frames {
		if _, err := raster.SaveFrame(dir, f); err != nil {
			return nil, fmt.Errorf("core: saving %s: %w", f.ID, err)
		}
		ids = append(ids, f.ID)
	}
	return ids, nil
}
