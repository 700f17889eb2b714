// Package vault implements the Data Vault of the paper (Ivanova, Kersten,
// Manegold, SSDBM 2012): a symbiosis between the DBMS and an external
// scientific file repository. The vault knows external file formats (here
// the synthetic ".sev" SEVIRI format), catalogues the repository's metadata
// eagerly (headers only), and converts file payloads into database arrays
// lazily, on first query touch, caching the result.
//
// The A3 ablation benchmark contrasts this lazy, query-driven ingestion
// against eager whole-repository loading.
package vault

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/column"
	"repro/internal/raster"
)

// Format describes an external file format the vault understands.
type Format struct {
	// Name identifies the format ("sev").
	Name string
	// Extension is the file suffix including the dot (".sev").
	Extension string
	// ReadHeader decodes catalogue metadata without payload.
	ReadHeader func(path string) (*raster.Header, error)
	// Load decodes the full file into a frame.
	Load func(path string) (*raster.Frame, error)
}

// SEVFormat is the built-in synthetic SEVIRI format.
var SEVFormat = Format{
	Name:      "sev",
	Extension: ".sev",
	ReadHeader: func(path string) (*raster.Header, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return raster.ReadHeader(f)
	},
	Load: raster.LoadFrame,
}

// Entry is one catalogued external file.
type Entry struct {
	Path   string
	Format string
	Header *raster.Header
}

// Stats counts vault activity: catalogue size, cache hits, lazy loads.
type Stats struct {
	Entries   int
	CacheHits int
	Loads     int
}

// Vault is a Data Vault over one repository directory. Safe for concurrent
// readers once attached.
type Vault struct {
	mu      sync.Mutex
	formats map[string]Format
	entries map[string]*Entry // keyed by product ID
	order   []string          // IDs in catalogue order (by time, then ID)
	cache   map[string]*raster.Frame
	stats   Stats
}

// New returns a vault that understands the given formats (SEVFormat when
// none are given).
func New(formats ...Format) *Vault {
	v := &Vault{
		formats: map[string]Format{},
		entries: map[string]*Entry{},
		cache:   map[string]*raster.Frame{},
	}
	if len(formats) == 0 {
		formats = []Format{SEVFormat}
	}
	for _, f := range formats {
		v.formats[f.Extension] = f
	}
	return v
}

// Attach scans a repository directory, cataloguing every file with a known
// extension by reading only its header. Payloads stay on disk.
func (v *Vault) Attach(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("vault: attaching %s: %w", dir, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(de.Name()))
		f, ok := v.formats[ext]
		if !ok {
			continue
		}
		path := filepath.Join(dir, de.Name())
		h, err := f.ReadHeader(path)
		if err != nil {
			return fmt.Errorf("vault: cataloguing %s: %w", path, err)
		}
		v.entries[h.ID] = &Entry{Path: path, Format: f.Name, Header: h}
	}
	v.order = v.order[:0]
	for id := range v.entries {
		v.order = append(v.order, id)
	}
	sort.Slice(v.order, func(i, j int) bool {
		a, b := v.entries[v.order[i]], v.entries[v.order[j]]
		if !a.Header.Time.Equal(b.Header.Time) {
			return a.Header.Time.Before(b.Header.Time)
		}
		return a.Header.ID < b.Header.ID
	})
	v.stats.Entries = len(v.entries)
	return nil
}

// IDs returns the catalogued product IDs in time order.
func (v *Vault) IDs() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.order...)
}

// Frame returns the decoded frame for a product, loading it lazily on
// first touch and serving the cache afterwards.
func (v *Vault) Frame(id string) (*raster.Frame, error) {
	v.mu.Lock()
	if f, ok := v.cache[id]; ok {
		v.stats.CacheHits++
		v.mu.Unlock()
		return f, nil
	}
	e, ok := v.entries[id]
	if !ok {
		v.mu.Unlock()
		return nil, fmt.Errorf("vault: unknown product %q", id)
	}
	format := v.formats["."+e.Format]
	if format.Load == nil {
		// Formats are keyed by extension; find by name.
		for _, f := range v.formats {
			if f.Name == e.Format {
				format = f
				break
			}
		}
	}
	v.mu.Unlock()
	// Load outside the lock; concurrent first touches may both load, the
	// second store wins harmlessly (frames are immutable once decoded).
	f, err := format.Load(e.Path)
	if err != nil {
		return nil, fmt.Errorf("vault: loading %s: %w", e.Path, err)
	}
	v.mu.Lock()
	v.cache[id] = f
	v.stats.Loads++
	v.mu.Unlock()
	return f, nil
}

// Stats returns a snapshot of the vault counters.
func (v *Vault) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Catalog materialises the catalogue as a relational table, the form the
// database tier exposes to SciQL and the metadata extractor.
func (v *Vault) Catalog() *column.Table {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := column.NewTable("catalog",
		column.Field{Name: "id", Typ: column.String},
		column.Field{Name: "path", Typ: column.String},
		column.Field{Name: "satellite", Typ: column.String},
		column.Field{Name: "sensor", Typ: column.String},
		column.Field{Name: "acquired_unix", Typ: column.Int64},
		column.Field{Name: "width", Typ: column.Int64},
		column.Field{Name: "height", Typ: column.Int64},
		column.Field{Name: "min_lon", Typ: column.Float64},
		column.Field{Name: "min_lat", Typ: column.Float64},
		column.Field{Name: "max_lon", Typ: column.Float64},
		column.Field{Name: "max_lat", Typ: column.Float64},
	)
	for _, id := range v.order {
		e := v.entries[id]
		env := e.Header.Envelope()
		// The schema mirrors the header exactly; AppendRow cannot fail.
		_ = t.AppendRow(e.Header.ID, e.Path, e.Header.Satellite, e.Header.Sensor,
			e.Header.Time.Unix(), int64(e.Header.Width), int64(e.Header.Height),
			env.MinX, env.MinY, env.MaxX, env.MaxY)
	}
	return t
}
