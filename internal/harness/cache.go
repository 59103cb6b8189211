package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hoop/internal/engine"
)

// cacheSchema versions the on-disk cell cache. Bump it whenever the
// simulator's measured semantics change in a way the key parts cannot
// express (engine scheduling, scheme internals, metric definitions): the
// version participates in every key, so a bump invalidates everything.
// v2: workload identity moved from the global Tuning to per-workload
// Options, and per-thread runner seeds changed to engine.ShardSeed.
// v3: compact trace wire, txs-free capture keys, section-generic kinds.
// v4: record/replay execution removed; every kind is one memo entry
// ({schema, kind, value}) keyed by %#v key parts, which prints simulated
// durations exactly where v3's %+v rounded them through Time.String.
const cacheSchema = "hoop-cellcache/v4"

// Memo kinds. The kind participates in the key, so kinds can never alias
// each other even with otherwise identical key parts.
const (
	kindCell       = "cell"
	kindContention = "contention"
	kindWear       = "wear"
)

// memoKey is the cache's one key function: the sha256 of the schema, the
// kind, and every key part in %#v form. %#v prints every field of a
// struct (exported or not) without calling String methods, so two inputs
// that differ anywhere produce different keys; key parts must hold no
// maps, pointers or funcs, whose %#v is not a function of their contents.
func memoKey(kind string, parts ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", cacheSchema, kind)
	for _, p := range parts {
		fmt.Fprintf(h, "%#v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memoEntry is the cache's one entry format: <key>.json holds the schema
// and kind it was written under plus the memoized value.
type memoEntry struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Value  json.RawMessage `json:"value"`
}

// cacheStats counts one section's cache traffic.
type cacheStats struct {
	Hits, Misses, Evictions int
	BytesRead, BytesWritten int64
}

// cellCache memoizes harness results on disk, one <key>.json file per
// entry. Cached metrics round-trip through JSON exactly (sim.Histogram
// included), so a warm rerun renders byte-identical grids. All cache I/O
// happens on the orchestrator goroutine between worker-pool batches —
// workers never touch it.
type cellCache struct {
	dir string
	max int64 // byte cap; <= 0 means unlimited
	// used marks keys loaded or stored during this run: eviction skips
	// them, so a tiny cap never deletes what this run just produced.
	used map[string]bool
	// section labels hit/miss attribution; RunSections rotates it.
	section string
	order   []string
	stats   map[string]*cacheStats
}

// staleTempAge is how old an orphaned *.tmp* file must be before the
// sweep on cache open deletes it. Temps live for milliseconds (write +
// rename); an hour-old temp is from a dead run, but a fresh one may
// belong to a concurrent run sharing the cache dir.
const staleTempAge = time.Hour

// openCellCache returns nil when caching is off. Tracing disables the
// cache: a cached cell executes nothing, so it cannot feed a JSONL sink.
func openCellCache(opts Options) (*cellCache, error) {
	if opts.CacheDir == "" || opts.Trace != nil {
		return nil, nil
	}
	if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: -cachedir: %w", err)
	}
	cc := &cellCache{dir: opts.CacheDir, max: opts.CacheMax, used: map[string]bool{}, stats: map[string]*cacheStats{}}
	cc.sweepTemps()
	return cc, nil
}

// sweepTemps deletes stale temp files orphaned by runs that died between
// CreateTemp and the rename in writeFile.
func (cc *cellCache) sweepTemps() {
	ents, err := os.ReadDir(cc.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, ent := range ents {
		if ent.IsDir() || !strings.Contains(ent.Name(), ".tmp") {
			continue
		}
		info, err := ent.Info()
		if err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(cc.dir, ent.Name()))
		}
	}
}

// setSection switches hit/miss attribution; "" falls back to "run".
func (cc *cellCache) setSection(name string) {
	if cc != nil {
		cc.section = name
	}
}

func (cc *cellCache) stat() *cacheStats {
	name := cc.section
	if name == "" {
		name = "run"
	}
	s := cc.stats[name]
	if s == nil {
		s = &cacheStats{}
		cc.stats[name] = s
		cc.order = append(cc.order, name)
	}
	return s
}

// statsReport renders the per-section accounting block for the end-of-run
// report; empty when the cache saw no traffic.
func (cc *cellCache) statsReport() string {
	if cc == nil || len(cc.order) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cell cache (%s):\n", cc.dir)
	var tot cacheStats
	for _, name := range cc.order {
		s := cc.stats[name]
		fmt.Fprintf(&b, "  %-14s %d hits, %d misses, %s read, %s written, %d evicted\n",
			name+":", s.Hits, s.Misses, fmtBytes(s.BytesRead), fmtBytes(s.BytesWritten), s.Evictions)
		tot.Hits += s.Hits
		tot.Misses += s.Misses
		tot.Evictions += s.Evictions
		tot.BytesRead += s.BytesRead
		tot.BytesWritten += s.BytesWritten
	}
	if len(cc.order) > 1 {
		fmt.Fprintf(&b, "  %-14s %d hits, %d misses, %s read, %s written, %d evicted\n",
			"total:", tot.Hits, tot.Misses, fmtBytes(tot.BytesRead), fmtBytes(tot.BytesWritten), tot.Evictions)
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// memoConfig resolves the post-Mut engine config a memo key describes.
// SchemeOpts is a map of arbitrary values, whose %#v is not a function of
// its contents: configs carrying it are simply not cached.
func memoConfig(scheme string, mut func(*engine.Config)) (engine.Config, bool) {
	cfg := engine.DefaultConfig(scheme)
	if mut != nil {
		mut(&cfg)
	}
	return cfg, cfg.SchemeOpts == nil
}

// load fills v from the entry under key, or reports a miss on any problem
// — missing file, foreign schema or kind, undecodable value — so
// corruption degrades to re-execution, never to wrong numbers.
func (cc *cellCache) load(key, kind string, v any) bool {
	raw, err := os.ReadFile(filepath.Join(cc.dir, key+".json"))
	var e memoEntry
	if err != nil || json.Unmarshal(raw, &e) != nil || e.Schema != cacheSchema || e.Kind != kind ||
		json.Unmarshal(e.Value, v) != nil {
		cc.stat().Misses++
		return false
	}
	s := cc.stat()
	s.Hits++
	s.BytesRead += int64(len(raw))
	cc.markUsed(key)
	return true
}

// store writes v as the entry under key, then enforces the byte cap.
func (cc *cellCache) store(key, kind string, v any) error {
	val, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: cache: %w", err)
	}
	data, err := json.Marshal(memoEntry{Schema: cacheSchema, Kind: kind, Value: val})
	if err != nil {
		return fmt.Errorf("harness: cache: %w", err)
	}
	if err := cc.writeFile(key+".json", data); err != nil {
		return err
	}
	cc.markUsed(key)
	return cc.enforceMax()
}

// memo returns the value memoized under (kind, parts), computing and
// storing it on a miss. With caching off, or parts nil (an uncacheable
// input), it just computes.
func memo[T any](opts Options, kind string, parts []any, compute func() (T, error)) (T, error) {
	cache, err := opts.ensureCache()
	if err != nil {
		var zero T
		return zero, err
	}
	if cache == nil || parts == nil {
		return compute()
	}
	key := memoKey(kind, parts...)
	var v T
	if cache.load(key, kind, &v) {
		return v, nil
	}
	if v, err = compute(); err != nil {
		return v, err
	}
	return v, cache.store(key, kind, v)
}

// runMemoized is the batch form of memo over worker-pool jobs: jobs whose
// entries hit are read from the cache, the misses execute as one runPool
// batch and are stored afterwards. Every section's cells — the matrix,
// TableIV, the sweeps, ablation, contention — run through here. Results
// are byte-identical with and without the cache.
func runMemoized[J job](jobs []J, opts Options) ([]Metrics, CellStats, error) {
	cache, err := opts.ensureCache()
	if err != nil {
		return nil, CellStats{}, err
	}
	if cache == nil {
		return runPool(jobs, opts.workers())
	}
	mets := make([]Metrics, len(jobs))
	kinds, keys := make([]string, len(jobs)), make([]string, len(jobs))
	var miss []J
	var missIdx []int
	for i, j := range jobs {
		var parts []any
		kinds[i], parts = j.memo()
		if parts != nil {
			keys[i] = memoKey(kinds[i], parts...)
			if cache.load(keys[i], kinds[i], &mets[i]) {
				continue
			}
		}
		miss = append(miss, j)
		missIdx = append(missIdx, i)
	}
	res, stats, err := runPool(miss, opts.workers())
	if err != nil {
		return nil, stats, err
	}
	for k, i := range missIdx {
		mets[i] = res[k]
		if keys[i] != "" {
			if err := cache.store(keys[i], kinds[i], res[k]); err != nil {
				return nil, stats, err
			}
		}
	}
	stats.Cells = len(jobs)
	stats.Cached = len(jobs) - len(miss)
	if stats.Workers == 0 {
		stats.Workers = opts.workers()
	}
	return mets, stats, nil
}

// markUsed records that this run touched key — it is pinned against
// eviction for the rest of the run — and refreshes the entry's file
// timestamp, which is the cache's LRU clock.
func (cc *cellCache) markUsed(key string) {
	cc.used[key] = true
	now := time.Now()
	os.Chtimes(filepath.Join(cc.dir, key+".json"), now, now)
}

// enforceMax evicts least-recently-used entries until the cache fits the
// byte cap, ordered by file modification time (loads refresh it via
// markUsed) with the name as a deterministic tiebreak. Keys used during
// this run are pinned. Eviction failures degrade to a larger cache, never
// to an error: the cache is an optimization.
func (cc *cellCache) enforceMax() error {
	if cc.max <= 0 {
		return nil
	}
	ents, err := os.ReadDir(cc.dir)
	if err != nil {
		return nil
	}
	var total int64
	var order []fs.FileInfo
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		if !cc.used[strings.TrimSuffix(name, ".json")] {
			order = append(order, info)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if !order[i].ModTime().Equal(order[j].ModTime()) {
			return order[i].ModTime().Before(order[j].ModTime())
		}
		return order[i].Name() < order[j].Name()
	})
	for _, info := range order {
		if total <= cc.max {
			break
		}
		os.Remove(filepath.Join(cc.dir, info.Name()))
		total -= info.Size()
		cc.stat().Evictions++
	}
	return nil
}

// writeFile writes via a temp file + rename so an interrupted run never
// leaves a half-written entry a later run could load.
func (cc *cellCache) writeFile(name string, data []byte) error {
	tmp, err := os.CreateTemp(cc.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("harness: cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(cc.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: cache: %w", err)
	}
	cc.stat().BytesWritten += int64(len(data))
	return nil
}

// CacheInventory summarizes what lives in a cell cache directory without
// running anything (the hoopbench -cachestats flag).
type CacheInventory struct {
	// Entries counts files by memo kind; "stale" marks entries of an older
	// cache schema (never hit again) and "foreign" anything else.
	Entries    map[string]int
	TotalBytes int64
	TempFiles  int
}

// ReadCacheInventory scans dir and classifies every entry by kind.
func ReadCacheInventory(dir string) (*CacheInventory, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("harness: -cachestats: %w", err)
	}
	inv := &CacheInventory{Entries: map[string]int{}}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		info, err := ent.Info()
		if err != nil {
			continue
		}
		inv.TotalBytes += info.Size()
		if strings.Contains(name, ".tmp") {
			inv.TempFiles++
			continue
		}
		var e memoEntry
		raw, err := os.ReadFile(filepath.Join(dir, name))
		switch {
		case err != nil || filepath.Ext(name) != ".json" || json.Unmarshal(raw, &e) != nil ||
			!strings.HasPrefix(e.Schema, "hoop-cellcache/"):
			inv.Entries["foreign"]++
		case e.Schema != cacheSchema:
			inv.Entries["stale"]++
		default:
			inv.Entries[e.Kind]++
		}
	}
	return inv, nil
}

// String renders the inventory as a one-screen summary.
func (inv *CacheInventory) String() string {
	var b strings.Builder
	kinds := make([]string, 0, len(inv.Entries))
	for k := range inv.Entries {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	total := 0
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d entries\n", k+":", inv.Entries[k])
		total += inv.Entries[k]
	}
	fmt.Fprintf(&b, "  %-12s %d entries, %s total", "all:", total, fmtBytes(inv.TotalBytes))
	if inv.TempFiles > 0 {
		fmt.Fprintf(&b, ", %d orphaned temp files", inv.TempFiles)
	}
	return b.String()
}
