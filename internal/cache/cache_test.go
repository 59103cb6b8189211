package cache

import (
	"slices"
	"strings"
	"testing"

	"hoop/internal/mem"
	"hoop/internal/sim"
)

func newHier(t *testing.T, cores int) (*Hierarchy, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	return New(DefaultConfig(cores), st), st
}

func addr(line int) mem.PAddr { return mem.PAddr(line * mem.LineSize) }

func TestMissThenHitLadder(t *testing.T) {
	h, st := newHier(t, 2)
	r := h.Lookup(0, addr(1), false, false)
	if r.HitLevel != 0 {
		t.Fatal("cold access must miss")
	}
	h.Fill(0, addr(1), false, false)
	r = h.Lookup(0, addr(1), false, false)
	if r.HitLevel != 1 {
		t.Fatalf("after fill, hit level = %d", r.HitLevel)
	}
	if r.Latency != DefaultConfig(2).L1Latency {
		t.Fatalf("L1 hit latency = %v", r.Latency)
	}
	if st.Get(sim.StatL1Hits) != 1 || st.Get(sim.StatLLCMisses) != 1 {
		t.Fatalf("stats: %s", st)
	}
}

func TestOtherCoreHitsSharedLLC(t *testing.T) {
	h, _ := newHier(t, 2)
	h.Fill(0, addr(7), false, false)
	r := h.Lookup(1, addr(7), false, false)
	if r.HitLevel != 3 {
		t.Fatalf("core 1 should hit the shared LLC, got level %d", r.HitLevel)
	}
	// And now it is in core 1's private levels too.
	if r := h.Lookup(1, addr(7), false, false); r.HitLevel != 1 {
		t.Fatalf("promotion failed, level %d", r.HitLevel)
	}
}

func TestWriteInvalidatesOtherCores(t *testing.T) {
	h, _ := newHier(t, 2)
	h.Fill(0, addr(3), false, false)
	h.Fill(1, addr(3), false, false)
	// Core 0 writes: core 1's private copies must go.
	if r := h.Lookup(0, addr(3), true, true); r.HitLevel != 1 {
		t.Fatalf("write should hit L1, level %d", r.HitLevel)
	}
	if r := h.Lookup(1, addr(3), false, false); r.HitLevel == 1 || r.HitLevel == 2 {
		t.Fatalf("core 1 should have been invalidated, hit level %d", r.HitLevel)
	}
}

func TestLLCEvictionReturnsDirtyPersistent(t *testing.T) {
	cfg := DefaultConfig(1)
	// Tiny LLC: 2 sets x 2 ways forces quick evictions.
	cfg.LLCSize = 4 * mem.LineSize
	cfg.LLCWays = 2
	cfg.L1Size = 4 * mem.LineSize
	cfg.L1Ways = 1
	cfg.L2Size = 8 * mem.LineSize
	cfg.L2Ways = 2
	h := New(cfg, sim.NewStats())
	// Dirty+persistent line 0, then displace it with same-set fills.
	h.Fill(0, addr(0), true, true)
	var evs []Eviction
	for i := 1; i < 16; i++ {
		evs = append(evs, h.Fill(0, addr(i*2), false, false)...) // stride hits set 0
	}
	found := false
	for _, e := range evs {
		if e.Line == addr(0) {
			found = true
			if !e.Persistent {
				t.Fatal("persistent bit lost on eviction")
			}
		}
	}
	if !found {
		t.Fatal("dirty line was never evicted")
	}
}

func TestFlushLine(t *testing.T) {
	h, _ := newHier(t, 1)
	h.Fill(0, addr(9), true, true)
	dirty, pers := h.FlushLine(addr(9), false)
	if !dirty || !pers {
		t.Fatal("flush should report dirty+persistent")
	}
	// Second flush: clean now.
	dirty, _ = h.FlushLine(addr(9), false)
	if dirty {
		t.Fatal("line should be clean after flush")
	}
	if !h.Contains(addr(9)) {
		t.Fatal("non-invalidating flush must keep the line")
	}
	h.FlushLine(addr(9), true)
	if h.Contains(addr(9)) {
		t.Fatal("invalidating flush must drop the line")
	}
}

func TestClearPersistent(t *testing.T) {
	h, _ := newHier(t, 1)
	h.Fill(0, addr(5), true, true)
	h.ClearPersistent(addr(5))
	_, pers := h.FlushLine(addr(5), false)
	if pers {
		t.Fatal("persistent bit should have been cleared")
	}
}

func TestDropAll(t *testing.T) {
	h, _ := newHier(t, 2)
	for i := 0; i < 50; i++ {
		h.Fill(i%2, addr(i), true, false)
	}
	if len(h.DirtyLines()) == 0 {
		t.Fatal("expected dirty lines")
	}
	h.DropAll()
	if len(h.DirtyLines()) != 0 || h.Contains(addr(1)) {
		t.Fatal("DropAll must erase everything")
	}
}

func TestDirtyEvictionsSortedAndFlagged(t *testing.T) {
	h, _ := newHier(t, 1)
	h.Fill(0, addr(30), true, true)
	h.Fill(0, addr(10), true, false)
	h.Fill(0, addr(20), false, false)
	evs := h.DirtyEvictions()
	if len(evs) != 2 {
		t.Fatalf("want 2 dirty lines, got %d", len(evs))
	}
	if evs[0].Line != addr(10) || evs[1].Line != addr(30) {
		t.Fatalf("not sorted: %+v", evs)
	}
	if evs[0].Persistent || !evs[1].Persistent {
		t.Fatalf("persistent flags wrong: %+v", evs)
	}
}

func TestLRUWithinSet(t *testing.T) {
	l := newLevel(4*mem.LineSize, 4, 0) // one set, 4 ways
	for i := uint64(0); i < 4; i++ {
		l.insert(i, false, false)
	}
	l.lookup(0) // touch 0 -> victim should be 1
	v := l.insert(99, false, false)
	if !v.valid || v.idx != 1 {
		t.Fatalf("victim = %+v, want idx 1", v)
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.L1Size/mem.LineSize/cfg.L1Ways != 128 {
		t.Fatal("L1 must have 128 sets (32KB, 4-way)")
	}
	if cfg.LLCSize != 2<<20 || cfg.LLCWays != 16 {
		t.Fatal("LLC must be 2MB 16-way (Table II)")
	}
}

// TestNonPowerOfTwoSetsPanics locks the set-count guard: the set index is a
// mask of the line index, which would alias sets silently for any other
// count, so New must refuse the geometry outright.
func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LLCSize = 3 << 20 // 3 MB / 64 B / 16 ways = 3072 sets
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "3072 sets") || !strings.Contains(msg, "not a power of two") {
			t.Fatalf("New with 3072 LLC sets: recovered %v, want a not-a-power-of-two panic", r)
		}
	}()
	New(cfg, sim.NewStats())
}

// fullScanFlush is the reference FlushLine: it probes every core's L1 and
// L2, whatever the presence index says, then the LLC.
func fullScanFlush(h *Hierarchy, a mem.PAddr, invalidate bool) (dirty, persistent bool) {
	idx := mem.LineIndex(a)
	fold := func(l *level) {
		var old line
		var ok bool
		if invalidate {
			old, ok = l.invalidate(idx)
		} else if ln := l.lookup(idx); ln != nil {
			old, ok = *ln, true
			ln.dirty = false
		}
		if ok && old.dirty {
			dirty = true
			persistent = persistent || old.persistent
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		fold(h.l1[c])
		fold(h.l2[c])
	}
	fold(h.llc)
	if invalidate {
		h.present.set(idx, 0)
	}
	return dirty, persistent
}

// TestFlushLineMatchesFullScan drives one random Lookup/Fill/FlushLine
// stream from 6 cores into two hierarchies — one flushing through the
// presence-directed FlushLine, the other through the full-scan reference —
// over small levels, so evictions, back-invalidations and cross-core write
// invalidations are frequent. Every result, the final DirtyEvictions and
// every tag array must match.
func TestFlushLineMatchesFullScan(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.L1Size, cfg.L1Ways = 8*mem.LineSize, 2
	cfg.L2Size, cfg.L2Ways = 16*mem.LineSize, 4
	cfg.LLCSize, cfg.LLCWays = 32*mem.LineSize, 4
	got, ref := New(cfg, sim.NewStats()), New(cfg, sim.NewStats())
	rng := sim.NewRand(0xF1A5)
	var flushes, dirtyFlushes int
	for step := 0; step < 20000; step++ {
		core := rng.Intn(cfg.Cores)
		a := addr(rng.Intn(96))
		write, pers := rng.Bool(0.4), rng.Bool(0.5)
		if rng.Bool(0.15) {
			inval := rng.Bool(0.5)
			gd, gp := got.FlushLine(a, inval)
			rd, rp := fullScanFlush(ref, a, inval)
			if gd != rd || gp != rp {
				t.Fatalf("step %d: FlushLine(%#x, %v) = (%v, %v), full scan (%v, %v)", step, a, inval, gd, gp, rd, rp)
			}
			flushes++
			if gd {
				dirtyFlushes++
			}
			continue
		}
		gr := got.Lookup(core, a, write, pers)
		rr := ref.Lookup(core, a, write, pers)
		if gr.HitLevel != rr.HitLevel || gr.Latency != rr.Latency || !slices.Equal(gr.Writebacks, rr.Writebacks) {
			t.Fatalf("step %d: Lookup diverged: %+v vs %+v", step, gr, rr)
		}
		if gr.HitLevel == 0 {
			if g, r := got.Fill(core, a, write, pers), ref.Fill(core, a, write, pers); !slices.Equal(g, r) {
				t.Fatalf("step %d: Fill evictions diverged: %+v vs %+v", step, g, r)
			}
		}
	}
	if flushes < 1000 || dirtyFlushes < 100 {
		t.Fatalf("only %d flushes (%d dirty); the stream must exercise FlushLine", flushes, dirtyFlushes)
	}
	if g, r := got.DirtyEvictions(), ref.DirtyEvictions(); !slices.Equal(g, r) {
		t.Fatalf("DirtyEvictions diverged:\n got %+v\n ref %+v", g, r)
	}
	for c := 0; c < cfg.Cores; c++ {
		if !slices.Equal(got.l1[c].meta, ref.l1[c].meta) || !slices.Equal(got.l2[c].meta, ref.l2[c].meta) {
			t.Fatalf("core %d private tag arrays diverged", c)
		}
	}
	if !slices.Equal(got.llc.meta, ref.llc.meta) {
		t.Fatal("LLC tag arrays diverged")
	}
}
