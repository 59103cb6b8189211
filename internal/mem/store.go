package mem

import (
	"encoding/binary"
	"iter"
	"slices"
)

// Store is the functional contents of the simulated NVM: a sparse byte
// store over the 512 GB physical address space. Pages (4 KB) are allocated
// lazily on first write, so simulating a huge DIMM costs memory
// proportional to the working set only.
//
// Store carries no timing information — timing lives in internal/nvm. The
// split lets crash-consistency tests reason about "what survives a crash"
// (this store) separately from "how long did it take".
//
// Pages are found through a two-level table: a map keyed by 16 MB chunk
// holds a fixed array of page pointers per chunk. The store remembers the
// last page and the last chunk it created or wrote to: simulated traffic
// is bursty within a page and within a region (slice streaming, log
// appends, GC migration, a structure's heap), so most accesses hit the
// cached page or index the cached chunk's array, and skip the map hash.
type Store struct {
	chunks map[uint64]*chunk
	npages int
	obs    WriteObserver

	lastKey   uint64
	lastChunk *chunk // nil when the cache is empty
	lastIdx   uint64
	lastPage  []byte // nil when the cache is empty
}

// Chunk geometry of the page table: 16 MB chunks of 4096 pages.
const (
	chunkShift    = 24
	pagesPerChunk = 1 << (chunkShift - PageShift)
)

// chunk is one 16 MB span of the page table; nil entries are pages never
// written.
type chunk [pagesPerChunk]*[PageSize]byte

// A WriteObserver is notified after every mutation of the store, decomposed
// into aligned 8-byte persist units: for each unit overlapping the mutated
// range it receives the unit's address and post-image. Real PM hardware
// guarantees atomicity only at this granularity, so the observer sees
// exactly the sequence of atomically-persistable writes — the basis of the
// crash-point journal in internal/nvm.
//
// Reset and CopyFrom are wholesale state swaps used by test harnesses, not
// NVM writes; they are not observed and must not be called while an
// observer that models durability is attached.
type WriteObserver func(a PAddr, unit [WordSize]byte)

// SetWriteObserver installs fn (nil detaches). Only one observer is
// supported at a time; Clone does not carry the observer over.
func (s *Store) SetWriteObserver(fn WriteObserver) { s.obs = fn }

// notifyRange reports the aligned 8-byte units overlapping [a, a+n) to the
// observer, reading each unit's post-image directly from the page slice
// (units are 8-byte aligned and pages 4 KB aligned, so a unit never
// straddles a page).
func (s *Store) notifyRange(a PAddr, n uint64) {
	if s.obs == nil || n == 0 {
		return
	}
	end := uint64(a) + n
	for w := uint64(WordAddr(a)); w < end; {
		p := s.page(PAddr(w), false)
		pageEnd := (w &^ uint64(PageOffMask)) + PageSize
		for ; w < end && w < pageEnd; w += WordSize {
			var unit [WordSize]byte
			if p != nil {
				off := w & PageOffMask
				copy(unit[:], p[off:off+WordSize])
			}
			s.obs(PAddr(w), unit)
		}
	}
}

// NewStore returns an empty (all-zero) store.
func NewStore() *Store {
	return &Store{chunks: make(map[uint64]*chunk)}
}

// page returns the page backing a, allocating it when create is true. The
// fast path, a hit on the last page created or written, is small enough to
// inline into the word and line accessors.
func (s *Store) page(a PAddr, create bool) []byte {
	if s.lastPage != nil && s.lastIdx == uint64(a)>>PageShift {
		return s.lastPage
	}
	return s.lookup(a, create)
}

// lookup is page through the chunk table. Only the create (mutating) path
// refreshes the last-chunk and last-page caches: read paths must stay free
// of writes so concurrent readers remain safe, the same contract a bare map
// gives (reads may run concurrently, any write requires exclusive access).
func (s *Store) lookup(a PAddr, create bool) []byte {
	key := uint64(a) >> chunkShift
	c := s.lastChunk
	if c == nil || s.lastKey != key {
		c = s.chunks[key]
		if c == nil {
			if !create {
				return nil
			}
			c = new(chunk)
			s.chunks[key] = c
		}
		if create {
			s.lastKey, s.lastChunk = key, c
		}
	}
	i := uint64(a) >> PageShift & (pagesPerChunk - 1)
	p := c[i]
	if p == nil {
		if !create {
			return nil
		}
		p = new([PageSize]byte)
		c[i] = p
		s.npages++
	}
	if create {
		s.lastIdx, s.lastPage = uint64(a)>>PageShift, p[:]
	}
	return p[:]
}

// Read copies len(dst) bytes starting at a into dst. Unwritten memory
// reads as zero.
func (s *Store) Read(a PAddr, dst []byte) {
	for len(dst) > 0 {
		off := int(a & PageOffMask)
		n := PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p := s.page(a, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += PAddr(n)
	}
}

// Write copies src into the store starting at a.
func (s *Store) Write(a PAddr, src []byte) {
	if off := int(a & PageOffMask); off+len(src) <= PageSize {
		// Single-page fast path: the vast majority of simulated writes are
		// word/line/slice granules that never cross a page.
		copy(s.page(a, true)[off:off+len(src)], src)
		s.notifyRange(a, uint64(len(src)))
		return
	}
	start, total := a, uint64(len(src))
	for len(src) > 0 {
		off := int(a & PageOffMask)
		n := PageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(s.page(a, true)[off:off+n], src[:n])
		src = src[n:]
		a += PAddr(n)
	}
	s.notifyRange(start, total)
}

// ReadWord reads the 8-byte little-endian word at a (must be word-aligned).
func (s *Store) ReadWord(a PAddr) uint64 {
	p := s.page(a, false)
	if p == nil {
		return 0
	}
	off := a & PageOffMask
	return binary.LittleEndian.Uint64(p[off : off+WordSize])
}

// WriteWord writes the 8-byte little-endian word v at a (must be
// word-aligned).
func (s *Store) WriteWord(a PAddr, v uint64) {
	p := s.page(a, true)
	off := a & PageOffMask
	binary.LittleEndian.PutUint64(p[off:off+WordSize], v)
	if s.obs != nil {
		var unit [WordSize]byte
		binary.LittleEndian.PutUint64(unit[:], v)
		s.obs(a, unit)
	}
}

// ReadLine reads the 64-byte cache line containing a.
func (s *Store) ReadLine(a PAddr) [LineSize]byte {
	var line [LineSize]byte
	la := LineAddr(a)
	if p := s.page(la, false); p != nil {
		off := la & PageOffMask
		copy(line[:], p[off:off+LineSize])
	}
	return line
}

// WriteLine writes a full 64-byte cache line at the line containing a.
func (s *Store) WriteLine(a PAddr, line [LineSize]byte) {
	la := LineAddr(a)
	p := s.page(la, true)
	off := la & PageOffMask
	copy(p[off:off+LineSize], line[:])
	if s.obs != nil {
		for w := 0; w < LineSize; w += WordSize {
			var unit [WordSize]byte
			copy(unit[:], line[w:w+WordSize])
			s.obs(la+PAddr(w), unit)
		}
	}
}

// Clone returns a deep copy of the store. Used by tests to snapshot
// durable state before injecting a crash.
func (s *Store) Clone() *Store {
	c := NewStore()
	c.copyPages(s)
	return c
}

// copyPages deep-copies every page of other into s, which must be empty.
func (s *Store) copyPages(other *Store) {
	for key, oc := range other.chunks {
		c := new(chunk)
		for i, p := range oc {
			if p != nil {
				cp := *p
				c[i] = &cp
			}
		}
		s.chunks[key] = c
	}
	s.npages = other.npages
}

// PagesAllocated reports how many 4 KB pages have been materialized.
func (s *Store) PagesAllocated() int { return s.npages }

// Pages iterates over every materialized page with its base address and
// contents, in ascending address order. Only the chunk keys are sorted;
// pages within a chunk are visited in array order, and a loop that breaks
// early skips the rest of the working set. Pages the loop body
// materializes may or may not be visited.
func (s *Store) Pages() iter.Seq2[PAddr, []byte] {
	return func(yield func(PAddr, []byte) bool) {
		keys := make([]uint64, 0, len(s.chunks))
		for key := range s.chunks {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			for i, p := range s.chunks[key] {
				if p != nil && !yield(PAddr(key<<chunkShift|uint64(i)<<PageShift), p[:]) {
					return
				}
			}
		}
	}
}

// Reset drops every page, returning the store to all-zeros, while keeping
// the store object (and every pointer to it) valid.
func (s *Store) Reset() {
	s.chunks = make(map[uint64]*chunk)
	s.npages = 0
	s.lastChunk, s.lastPage = nil, nil
}

// CopyFrom replaces this store's contents with a deep copy of other's.
func (s *Store) CopyFrom(other *Store) {
	s.Reset()
	s.copyPages(other)
}

// zeroPage is the shared all-zero source for ZeroRange; it is never
// written to.
var zeroPage [PageSize]byte

// ZeroRange clears [a, a+n). Used when a scheme recycles log/OOP space.
// Only materialized pages are touched (unwritten memory already reads as
// zero), and only those mutated subranges are reported to the observer.
func (s *Store) ZeroRange(a PAddr, n uint64) {
	for n > 0 {
		off := int(a & PageOffMask)
		c := uint64(PageSize - off)
		if c > n {
			c = n
		}
		if p := s.page(a, false); p != nil {
			copy(p[off:off+int(c)], zeroPage[:c])
			s.notifyRange(a, c)
		}
		a += PAddr(c)
		n -= c
	}
}
