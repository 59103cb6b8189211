package mem

import "testing"

// The store benchmarks cover the access shapes the simulator's hot path
// actually issues: sequential word writes (slice streaming, journal
// replay), word writes with a write observer attached (every crash test
// runs this way), line-granule traffic (cache fills and evictions), and
// log-recycle zeroing. benchRegion spans multiple pages so the page-lookup
// cost is exercised, while staying small enough to keep the working set in
// host cache — the numbers then isolate the store's own bookkeeping.
const benchRegion = 16 * PageSize

func BenchmarkStoreWriteWordSeq(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * WordSize % benchRegion)
		s.WriteWord(a, uint64(i))
	}
}

func BenchmarkStoreWriteWordJournal(b *testing.B) {
	// The crash-test configuration: every mutation is decomposed into
	// aligned 8-byte persist units and handed to an observer (the journal
	// appends them). This is the tax on every durable write in a fuzz run.
	s := NewStore()
	sink := make([]struct {
		a PAddr
		v [WordSize]byte
	}, 0, 1024)
	s.SetWriteObserver(func(a PAddr, unit [WordSize]byte) {
		if len(sink) == cap(sink) {
			sink = sink[:0]
		}
		sink = append(sink, struct {
			a PAddr
			v [WordSize]byte
		}{a, unit})
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * WordSize % benchRegion)
		s.WriteWord(a, uint64(i))
	}
}

func BenchmarkStoreReadWordSeq(b *testing.B) {
	s := NewStore()
	for a := PAddr(0); a < benchRegion; a += WordSize {
		s.WriteWord(a, uint64(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * WordSize % benchRegion)
		acc += s.ReadWord(a)
	}
	benchSinkU64 = acc
}

func BenchmarkStoreWriteLineSeq(b *testing.B) {
	s := NewStore()
	var line [LineSize]byte
	for i := range line {
		line[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * LineSize % benchRegion)
		s.WriteLine(a, line)
	}
}

func BenchmarkStoreReadLineSeq(b *testing.B) {
	s := NewStore()
	for a := PAddr(0); a < benchRegion; a += WordSize {
		s.WriteWord(a, uint64(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc byte
	for i := 0; i < b.N; i++ {
		a := PAddr(uint64(i) * LineSize % benchRegion)
		l := s.ReadLine(a)
		acc += l[0]
	}
	benchSinkByte = acc
}

func BenchmarkStoreZeroRange(b *testing.B) {
	// Log-recycle shape: clear a materialized 4-page span.
	s := NewStore()
	for a := PAddr(0); a < 4*PageSize; a += WordSize {
		s.WriteWord(a, ^uint64(0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ZeroRange(0, 4*PageSize)
	}
}

func BenchmarkStorePages(b *testing.B) {
	s := NewStore()
	for a := PAddr(0); a < 256*PageSize; a += PageSize {
		s.WriteWord(a, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for range s.Pages() {
			n++
		}
	}
	benchSinkInt = n
}

var (
	benchSinkU64  uint64
	benchSinkByte byte
	benchSinkInt  int
)
