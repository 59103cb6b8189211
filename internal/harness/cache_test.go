package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/workload"
)

// TestCellCacheWarmRerun: a cold run populates the cache, a warm rerun
// executes zero cells, and the warm metrics are bit-identical — the
// property the CI cache-correctness job holds hoopbench to.
func TestCellCacheWarmRerun(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: dir}
	wls := []workload.Workload{quickWL("queue"), quickWL("hashmap")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP, engine.SchemeNative}

	cold, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cached != 0 {
		t.Fatalf("cold run reported %d cached cells", cold.Stats.Cached)
	}
	warm, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Cached != warm.Stats.Cells || warm.Stats.Cells != len(wls)*len(schemes) {
		t.Fatalf("warm run cached %d/%d cells, want all %d", warm.Stats.Cached, warm.Stats.Cells, len(wls)*len(schemes))
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Fatalf("warm cache metrics diverge from cold run\ncold: %+v\nwarm: %+v", cold.Cells, warm.Cells)
	}
	if !strings.Contains(warm.Stats.String(), "cached") {
		t.Fatalf("stats string omits the cache count: %s", warm.Stats)
	}

	// Changing any key input — here the seed — must miss.
	opts2 := opts
	opts2.Seed = 4
	reseeded, err := RunMatrixOn(opts2, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Stats.Cached != 0 {
		t.Fatalf("reseeded run hit the cache (%d cells) despite a different seed", reseeded.Stats.Cached)
	}
}

// TestCellCacheCorruptionDegradesToMiss: corrupt or foreign entries
// re-execute instead of feeding wrong numbers.
func TestCellCacheCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Quick: true, Seed: 3, Workers: 1, CacheDir: dir}
	wls := []workload.Workload{quickWL("queue")}
	schemes := []string{engine.SchemeRedo, engine.SchemeHOOP}

	cold, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("expected 2 cache entries, got %v (%v)", entries, err)
	}
	for _, p := range entries {
		if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Cached != 0 {
		t.Fatalf("corrupt entries still hit: %d cached", warm.Stats.Cached)
	}
	if !reflect.DeepEqual(cold.Cells, warm.Cells) {
		t.Fatal("re-executed metrics diverge from cold run")
	}

	// A well-formed entry under another kind or schema must miss too.
	for _, p := range entries {
		if err := os.WriteFile(p, []byte(`{"schema":"hoop-cellcache/v3","kind":"cell","value":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale, err := RunMatrixOn(opts, wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Stats.Cached != 0 {
		t.Fatalf("stale-schema entries still hit: %d cached", stale.Stats.Cached)
	}
}

// TestCellCacheSweepsStaleTemps: opening the cache removes temp files
// orphaned by a dead run, but leaves fresh ones (a concurrent run may
// still be mid-rename) and real entries alone.
func TestCellCacheSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "abc.json.tmp123")
	fresh := filepath.Join(dir, "def.trc.tmp456")
	entry := filepath.Join(dir, "0ff.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	cc, err := openCellCache(Options{CacheDir: dir})
	if err != nil || cc == nil {
		t.Fatalf("openCellCache: %v (%v)", cc, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the sweep: %v", err)
	}
	for _, p := range []string{fresh, entry} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep removed %s: %v", filepath.Base(p), err)
		}
	}
}

// TestContentionCacheWarmRerun: the contention sweep memoizes per-cell,
// so a warm rerun reads every cell from cache and renders identical
// grids — the section-generic half of the -cachedir contract.
func TestContentionCacheWarmRerun(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, Workers: 2, CacheDir: t.TempDir()}
	cache, err := opts.ensureCache()
	if err != nil {
		t.Fatal(err)
	}
	coldT, coldA, err := ContentionFigure(opts)
	if err != nil {
		t.Fatal(err)
	}
	coldHits := cache.stat().Hits
	warmT, warmA, err := ContentionFigure(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := cache.stat()
	cells := len(coldT.Rows) * len(coldT.Cols)
	if s.Hits-coldHits != cells {
		t.Fatalf("warm contention rerun hit %d cells, want all %d", s.Hits-coldHits, cells)
	}
	if !reflect.DeepEqual(coldT, warmT) || !reflect.DeepEqual(coldA, warmA) {
		t.Fatal("warm contention grids diverge from cold run")
	}
}

// TestWearCacheWarmRerun: the wear report memoizes as one kindWear value.
func TestWearCacheWarmRerun(t *testing.T) {
	opts := Options{Quick: true, Seed: 3, CacheDir: t.TempDir(),
		WL: workload.Options{Keys: 4096, ValBytes: 64}}
	cache, err := opts.ensureCache()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Wear(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Wear(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.stat().Hits != 1 {
		t.Fatalf("warm wear rerun recorded %d hits, want 1", cache.stat().Hits)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached wear report diverges\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// FuzzCellCacheEntry: whatever bytes sit in <key>.json, load never
// panics; it hits only for an entry that parses as {schema, kind, value}
// under the current schema and the requested kind with a value that
// decodes; and a hit, stored back and loaded again, yields the same value.
func FuzzCellCacheEntry(f *testing.F) {
	dir := f.TempDir()
	cc := &cellCache{dir: dir, stats: map[string]*cacheStats{}}
	const key = "0ff"
	path := filepath.Join(dir, key+".json")
	m := Metrics{Txs: 12, Aborts: 1, Span: 3 * sim.Microsecond, LatencySum: 9 * sim.Microsecond,
		BytesWritten: 4096, BytesRead: 512, EnergyPJ: 1.5e6, Loads: 40, Stores: 64,
		Counters: map[string]int64{sim.StatNVMBytesWritten: 4096},
		Phases:   []telemetry.KindCount{{Kind: telemetry.KindTxCommit, N: 12}}}
	m.Latency.Observe(250 * sim.Nanosecond)
	m.Latency.Observe(2 * sim.Microsecond)
	if err := cc.store(key, kindCell, m); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var probe Metrics
	if !cc.load(key, kindCell, &probe) || !reflect.DeepEqual(probe, m) {
		f.Fatalf("real entry does not load back: %+v", probe)
	}
	f.Add(entry)
	f.Add(bytes.Replace(entry, []byte(cacheSchema), []byte("hoop-cellcache/v3"), 1))
	f.Add(bytes.Replace(entry, []byte(`"kind":"cell"`), []byte(`"kind":"wear"`), 1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got Metrics
		hit := cc.load(key, kindCell, &got)
		var e memoEntry
		var want Metrics
		wellFormed := json.Unmarshal(raw, &e) == nil && e.Schema == cacheSchema && e.Kind == kindCell &&
			json.Unmarshal(e.Value, &want) == nil
		if hit != wellFormed {
			t.Fatalf("load hit=%v for an entry that is well-formed=%v: %q", hit, wellFormed, raw)
		}
		if !hit {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hit decoded %+v, want %+v", got, want)
		}
		if err := cc.store(key, kindCell, got); err != nil {
			t.Fatal(err)
		}
		var again Metrics
		if !cc.load(key, kindCell, &again) || !reflect.DeepEqual(again, got) {
			t.Fatalf("stored hit does not load back unchanged: %+v vs %+v", again, got)
		}
	})
}
