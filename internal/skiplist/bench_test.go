package skiplist

import "testing"

// The benchmarks compare the arena list with the pointer reference at two
// index sizes: random-key lookups (the LSM baseline's per-load index walk)
// and a full fill (its per-store inserts between GC passes).

type benchList interface {
	Set(k, v uint64) int
	Get(k uint64) (uint64, bool, int)
}

func benchGet(b *testing.B, l benchList, n int) {
	for i := 0; i < n; i++ {
		l.Set(uint64(i*7919%n)*8, uint64(i))
	}
	b.ResetTimer()
	x, hops := uint64(1), 0
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		_, _, h := l.Get((x >> 20) % uint64(n) * 8)
		hops += h
	}
	benchHops = hops
}

// benchHops keeps the benchmarked lookups observable to the compiler.
var benchHops int

func benchFill(b *testing.B, l benchList, clear func(), n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear()
		for j := 0; j < n; j++ {
			l.Set(uint64(j*7919%n)*8, uint64(j))
		}
	}
}

func BenchmarkGet64K(b *testing.B)          { benchGet(b, New(1), 1<<16) }
func BenchmarkGet1M(b *testing.B)           { benchGet(b, New(1), 1<<20) }
func BenchmarkReferenceGet64K(b *testing.B) { benchGet(b, newRef(1), 1<<16) }
func BenchmarkReferenceGet1M(b *testing.B)  { benchGet(b, newRef(1), 1<<20) }

func BenchmarkFill64K(b *testing.B) {
	l := New(1)
	benchFill(b, l, l.Clear, 1<<16)
}

func BenchmarkReferenceFill64K(b *testing.B) {
	l := newRef(1)
	benchFill(b, l, l.Clear, 1<<16)
}
