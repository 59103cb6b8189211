package skiplist

import (
	"math/rand"
	"testing"
)

// refList is the pointer-linked skip list the arena list replaced, kept
// verbatim as the reference: every node is a heap object with a full
// maxLevel array of next pointers. The arena list must reproduce its values
// and hop counts exactly, because the LSM baseline charges simulated time
// per hop.
type refNode struct {
	key  uint64
	val  uint64
	next [maxLevel]*refNode
}

type refList struct {
	head     *refNode
	level    int
	length   int
	rngState uint64
}

func newRef(seed uint64) *refList {
	if seed == 0 {
		seed = 0x5DEECE66D
	}
	return &refList{head: &refNode{}, level: 1, rngState: seed}
}

func (l *refList) randLevel() int {
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

func (l *refList) Get(key uint64) (val uint64, ok bool, hops int) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.val, true, hops
	}
	return 0, false, hops
}

func (l *refList) Set(key, val uint64) (hops int) {
	var update [maxLevel]*refNode
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
		update[i] = x
	}
	if nx := x.next[0]; nx != nil && nx.key == key {
		nx.val = val
		return hops
	}
	lvl := l.randLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := &refNode{key: key, val: val}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	l.length++
	return hops
}

func (l *refList) Delete(key uint64) (found bool, hops int) {
	var update [maxLevel]*refNode
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
			hops++
		}
		hops++
		update[i] = x
	}
	target := x.next[0]
	if target == nil || target.key != key {
		return false, hops
	}
	for i := 0; i < l.level; i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.length--
	return true, hops
}

func (l *refList) Range(lo, hi uint64, fn func(key, val uint64) bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < lo {
			x = x.next[i]
		}
	}
	for x = x.next[0]; x != nil && x.key < hi; x = x.next[0] {
		if !fn(x.key, x.val) {
			return
		}
	}
}

func (l *refList) Clear() {
	l.head = &refNode{}
	l.level = 1
	l.length = 0
}

type kv struct{ k, v uint64 }

// TestMatchesPointerReference drives the arena list and the reference with
// one seeded stream of Set/Get/Delete/Range/Clear and requires identical
// results — values, presence, hop counts, lengths and range contents — at
// every step. Keys come from a small space so updates, deletes of present
// keys and node recycling are all frequent.
func TestMatchesPointerReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		l, ref := New(0xBEEF), newRef(0xBEEF)
		keySpace := uint64(64 << seed)
		var got, want []kv
		for step := 0; step < 60000; step++ {
			k := r.Uint64() % keySpace
			switch op := r.Intn(100); {
			case op < 45:
				v := r.Uint64()
				if h, rh := l.Set(k, v), ref.Set(k, v); h != rh {
					t.Fatalf("seed %d step %d: Set(%d) hops %d, reference %d", seed, step, k, h, rh)
				}
			case op < 70:
				v, ok, h := l.Get(k)
				rv, rok, rh := ref.Get(k)
				if v != rv || ok != rok || h != rh {
					t.Fatalf("seed %d step %d: Get(%d) = (%d,%v,%d), reference (%d,%v,%d)",
						seed, step, k, v, ok, h, rv, rok, rh)
				}
			case op < 95:
				f, h := l.Delete(k)
				rf, rh := ref.Delete(k)
				if f != rf || h != rh {
					t.Fatalf("seed %d step %d: Delete(%d) = (%v,%d), reference (%v,%d)",
						seed, step, k, f, h, rf, rh)
				}
			case op < 99:
				hi := k + r.Uint64()%64
				limit := r.Intn(16) + 1
				got, want = got[:0], want[:0]
				l.Range(k, hi, func(k, v uint64) bool {
					got = append(got, kv{k, v})
					return len(got) < limit
				})
				ref.Range(k, hi, func(k, v uint64) bool {
					want = append(want, kv{k, v})
					return len(want) < limit
				})
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: Range(%d,%d) visited %d, reference %d", seed, step, k, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: Range(%d,%d)[%d] = %v, reference %v", seed, step, k, hi, i, got[i], want[i])
					}
				}
			default:
				l.Clear()
				ref.Clear()
			}
			if l.Len() != ref.length || l.level != ref.level {
				t.Fatalf("seed %d step %d: len/level %d/%d, reference %d/%d", seed, step, l.Len(), l.level, ref.length, ref.level)
			}
		}
	}
}

// TestSetAllocFreeAfterClear locks the arena reuse: once the list has held
// a working set, refilling it after Clear (the LSM index after a GC pass)
// and re-inserting deleted keys allocate nothing.
func TestSetAllocFreeAfterClear(t *testing.T) {
	const n = 4096
	l := New(0xBEEF)
	for i := uint64(0); i < n; i++ {
		l.Set(i*8, i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		l.Clear()
		for i := uint64(0); i < n/2; i++ {
			l.Set(i*8, i)
		}
	})
	if allocs != 0 {
		t.Fatalf("Clear+refill allocates %v/run, want 0", allocs)
	}
	k := uint64(0)
	allocs = testing.AllocsPerRun(1000, func() {
		k = (k + 8) % (n / 2 * 8)
		l.Delete(k)
		l.Set(k, k)
	})
	if allocs != 0 {
		t.Fatalf("Delete+Set allocates %v/run, want 0", allocs)
	}
}
