// Package skiplist implements a deterministic skip list keyed by uint64,
// used as the DRAM-cached address-mapping index of the log-structured NVM
// baseline (LSNVMM caches its mapping tree in DRAM; the HOOP paper's LSM
// comparison point implements that tree with a skip list, §IV-A).
//
// The list exposes the structural cost of each operation (the number of
// node hops performed), which the LSM scheme converts into index-lookup
// latency — the O(log N) read penalty that Table I calls "High" read
// latency.
//
// Nodes live in one arena of words: a node is its key, its value, its
// level and then a tower of forward links only as tall as that level, and
// a link is the arena offset of the next node, not a pointer. Each hop of a
// search reads one link and then the next node's key, which sits in the
// same few words as that node's own links. Deleted nodes are recycled by
// level and Clear keeps the arena, so a list that is refilled after Clear
// (the LSM index after every GC pass) allocates nothing once it has
// reached its working size.
package skiplist

import "slices"

const maxLevel = 24

// Node layout in the arena, as word offsets from the node's first word: a
// node's forward link at level i is at linkOff+i. The head, at offset 0,
// has a full maxLevel tower and so is headWords long.
const (
	keyOff    = 0
	valOff    = 1
	levelOff  = 2
	linkOff   = 3
	headWords = linkOff + maxLevel
)

// nilNode is the link value that ends a level. The head is the node at
// offset 0 and is never any node's successor, so 0 can double as the nil
// link.
const nilNode = 0

// List is a skip list mapping uint64 keys to uint64 values. Not safe for
// concurrent use.
type List struct {
	arena    []uint64        // the head (a maxLevel tower) at 0, then nodes
	free     [maxLevel]int32 // deleted nodes per level, chained via link 0
	level    int
	length   int
	rngState uint64
}

// New returns an empty list. The level generator is seeded deterministically
// so simulation runs are reproducible.
func New(seed uint64) *List {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	l := &List{rngState: seed, level: 1}
	l.arena = make([]uint64, headWords)
	l.arena[levelOff] = maxLevel
	return l
}

func (l *List) randLevel() int {
	x := l.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	l.rngState = x
	bits := x * 0x2545F4914F6CDD1D
	lvl := 1
	for bits&1 == 1 && lvl < maxLevel {
		lvl++
		bits >>= 1
	}
	return lvl
}

// Len reports the number of keys stored.
func (l *List) Len() int { return l.length }

// search descends from the head to the last node with a key below key at
// each level, recording that node per level in update when it is non-nil.
// It returns the level-0 predecessor and the number of hops performed.
func (l *List) search(key uint64, update *[maxLevel]int32) (x int32, hops int) {
	a := l.arena
	for i := l.level - 1; i >= 0; i-- {
		for {
			nx := a[int(x)+linkOff+i]
			if nx == nilNode || a[nx+keyOff] >= key {
				break
			}
			x = int32(nx)
			hops++
		}
		hops++
		if update != nil {
			update[i] = x
		}
	}
	return x, hops
}

// succ returns the level-0 successor of node x.
func (l *List) succ(x int32) int32 { return int32(l.arena[int(x)+linkOff]) }

// Get returns the value for key and the number of node hops the search
// performed.
func (l *List) Get(key uint64) (val uint64, ok bool, hops int) {
	x, hops := l.search(key, nil)
	if nx := l.succ(x); nx != nilNode && l.arena[int(nx)+keyOff] == key {
		return l.arena[int(nx)+valOff], true, hops
	}
	return 0, false, hops
}

// Set inserts or updates key, returning the hop count.
func (l *List) Set(key, val uint64) (hops int) {
	var update [maxLevel]int32
	x, hops := l.search(key, &update)
	if nx := l.succ(x); nx != nilNode && l.arena[int(nx)+keyOff] == key {
		l.arena[int(nx)+valOff] = val
		return hops
	}
	lvl := l.randLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = 0
		}
		l.level = lvl
	}
	n := l.alloc(lvl)
	a := l.arena
	a[int(n)+keyOff], a[int(n)+valOff] = key, val
	for i := 0; i < lvl; i++ {
		up := int(update[i]) + linkOff + i
		a[int(n)+linkOff+i] = a[up]
		a[up] = uint64(n)
	}
	l.length++
	return hops
}

// alloc returns a node with a tower of lvl links, recycling a deleted node
// of the same level when there is one.
func (l *List) alloc(lvl int) int32 {
	if n := l.free[lvl-1]; n != nilNode {
		l.free[lvl-1] = int32(l.arena[int(n)+linkOff])
		return n
	}
	n := len(l.arena)
	if n+linkOff+lvl > 1<<31-1 {
		panic("skiplist: arena exceeds 2^31 words")
	}
	// Set writes the new node's key, value and every link.
	l.arena = slices.Grow(l.arena, linkOff+lvl)[:n+linkOff+lvl]
	l.arena[n+levelOff] = uint64(lvl)
	return int32(n)
}

// Delete removes key if present, returning whether it was found and the
// hop count.
func (l *List) Delete(key uint64) (found bool, hops int) {
	var update [maxLevel]int32
	x, hops := l.search(key, &update)
	target := l.succ(x)
	a := l.arena
	if target == nilNode || a[int(target)+keyOff] != key {
		return false, hops
	}
	for i := 0; i < l.level; i++ {
		up := int(update[i]) + linkOff + i
		if a[up] == uint64(target) {
			a[up] = a[int(target)+linkOff+i]
		}
	}
	for l.level > 1 && a[linkOff+l.level-1] == nilNode {
		l.level--
	}
	lvl := a[int(target)+levelOff]
	a[int(target)+linkOff] = uint64(l.free[lvl-1])
	l.free[lvl-1] = target
	l.length--
	return true, hops
}

// Range calls fn for every key in [lo, hi) in ascending order until fn
// returns false.
func (l *List) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	x, _ := l.search(lo, nil)
	for x = l.succ(x); x != nilNode && l.arena[int(x)+keyOff] < hi; x = l.succ(x) {
		if !fn(l.arena[int(x)+keyOff], l.arena[int(x)+valOff]) {
			return
		}
	}
}

// Clear drops every entry, keeping the arena for reuse.
func (l *List) Clear() {
	l.arena = l.arena[:headWords]
	clear(l.arena[linkOff:])
	l.free = [maxLevel]int32{}
	l.level = 1
	l.length = 0
}
