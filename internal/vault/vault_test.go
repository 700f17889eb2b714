package vault

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/raster"
)

// makeRepo writes n tiny synthetic frames into a temp repository.
func makeRepo(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	frames := raster.Generate(raster.GenOptions{Width: 8, Height: 8, Steps: n})
	for _, f := range frames {
		if _, err := raster.SaveFrame(dir, f); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestAttachAndCatalog(t *testing.T) {
	dir := makeRepo(t, 4)
	v := New()
	if err := v.Attach(dir); err != nil {
		t.Fatal(err)
	}
	ids := v.IDs()
	if len(ids) != 4 {
		t.Fatalf("ids = %d", len(ids))
	}
	// Time ordering.
	for i := 1; i < len(ids); i++ {
		a, b := v.entries[ids[i-1]], v.entries[ids[i]]
		if a.Header.Time.After(b.Header.Time) {
			t.Fatal("catalogue not time ordered")
		}
	}
	cat := v.Catalog()
	if cat.NumRows() != 4 {
		t.Fatalf("catalog rows = %d", cat.NumRows())
	}
	if cat.Col("sensor").Str(0) != "SEVIRI" {
		t.Fatal("sensor column")
	}
	if cat.Col("width").Int(0) != 8 {
		t.Fatal("width column")
	}
	// Bounding box covers the scene region.
	if cat.Col("min_lon").Float(0) != 21 || cat.Col("max_lat").Float(0) != 40 {
		t.Fatalf("bbox = %g %g", cat.Col("min_lon").Float(0), cat.Col("max_lat").Float(0))
	}
	if s := v.Stats(); s.Entries != 4 || s.Loads != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLazyLoadAndCache(t *testing.T) {
	dir := makeRepo(t, 3)
	v := New()
	if err := v.Attach(dir); err != nil {
		t.Fatal(err)
	}
	ids := v.IDs()
	// First touch: a load.
	f1, err := v.Frame(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f1.ID != ids[0] {
		t.Fatal("wrong frame")
	}
	if s := v.Stats(); s.Loads != 1 || s.CacheHits != 0 {
		t.Fatalf("after first touch: %+v", s)
	}
	// Second touch: a cache hit, same pointer.
	f2, err := v.Frame(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("cache should return the same frame")
	}
	if s := v.Stats(); s.Loads != 1 || s.CacheHits != 1 {
		t.Fatalf("after cache hit: %+v", s)
	}
	// Untouched products were never decoded.
	if s := v.Stats(); s.Loads != 1 {
		t.Fatalf("lazy violated: %+v", s)
	}
}

func TestLoadAll(t *testing.T) {
	dir := makeRepo(t, 3)
	v := New()
	if err := v.Attach(dir); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if s := v.Stats(); s.Loads != 3 {
		t.Fatalf("LoadAll stats = %+v", s)
	}
}

func TestUnknownProduct(t *testing.T) {
	v := New()
	if _, err := v.Frame("ghost"); err == nil {
		t.Fatal("unknown frame should error")
	}
}

func TestAttachErrors(t *testing.T) {
	v := New()
	if err := v.Attach("/nonexistent/dir"); err == nil {
		t.Fatal("missing dir should error")
	}
	// Corrupt file with the right extension fails cataloguing.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.sev"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.Attach(dir); err == nil {
		t.Fatal("corrupt file should error")
	}
}

func TestAttachIgnoresForeignFiles(t *testing.T) {
	dir := makeRepo(t, 1)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	v := New()
	if err := v.Attach(dir); err != nil {
		t.Fatal(err)
	}
	if len(v.IDs()) != 1 {
		t.Fatalf("ids = %d", len(v.IDs()))
	}
}

func TestHeaderMatchesFrame(t *testing.T) {
	dir := makeRepo(t, 1)
	v := New()
	if err := v.Attach(dir); err != nil {
		t.Fatal(err)
	}
	id := v.IDs()[0]
	e := v.entries[id]
	f, err := v.Frame(id)
	if err != nil {
		t.Fatal(err)
	}
	if e.Header.ID != f.ID || !e.Header.Time.Equal(f.Time) || e.Header.GeoRef != f.GeoRef {
		t.Fatal("header metadata should match full decode")
	}
	if len(e.Header.BandNames) != len(f.Bands) {
		t.Fatal("band names")
	}
}
