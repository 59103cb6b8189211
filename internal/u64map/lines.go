package u64map

import "slices"

// Line geometry of the coalescing table: 64-byte lines of eight 8-byte
// words (the simulator's cache-line and persist-unit sizes).
const (
	lineShift    = 6
	wordShift    = 3
	wordsPerLine = 8
)

// LineWords is one line's coalesced words: Words[i] holds the value of the
// line's i-th word when bit i of Mask is set.
type LineWords struct {
	Mask  uint8
	Words [wordsPerLine][8]byte
}

// LineTable is the line-keyed coalescing table of a GC pass (HOOP's
// Algorithm 1 and the LSM baseline's log migration): it keeps at most one
// value per word, grouped by the line that holds the word, so a pass that
// scans versions newest-first keeps the newest value of every word and then
// migrates line by line in address order. Keying by line rather than by
// word means one probe finds all eight words of a line, and ordering the
// migration sorts line indices, not word addresses.
//
// Like Map, it clears in O(1) and keeps its storage, so a steady GC cadence
// performs no allocation. The zero value is ready to use.
type LineTable struct {
	m     Map[LineWords]
	lines []uint64
}

// Clear drops every word in O(1), keeping the backing arrays for reuse.
func (t *LineTable) Clear() { t.m.Clear() }

// Word returns the slot of the 8-byte word at addr (which must be
// word-aligned) and whether it is fresh: the first reference to the word
// since the last Clear. The caller fills a fresh slot; a word referenced
// again keeps its first value. The pointer is valid until the next Word
// call that adds a line.
func (t *LineTable) Word(addr uint64) (v *[8]byte, fresh bool) {
	lw := t.m.Ref(addr >> lineShift)
	bit := uint8(1) << (addr >> wordShift & (wordsPerLine - 1))
	fresh = lw.Mask&bit == 0
	lw.Mask |= bit
	return &lw.Words[addr>>wordShift&(wordsPerLine-1)], fresh
}

// Lines returns the indices (address >> 6) of every line holding a word,
// in ascending order. The slice is reused by the next Lines call.
func (t *LineTable) Lines() []uint64 {
	t.lines = t.m.Keys(t.lines[:0])
	slices.Sort(t.lines)
	return t.lines
}

// Line returns the words held for line (nil when it holds none). The
// pointer is valid until the next Word call that adds a line.
func (t *LineTable) Line(line uint64) *LineWords {
	if i := t.m.find(line); i >= 0 {
		return &t.m.vals[i]
	}
	return nil
}
