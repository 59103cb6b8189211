package mem

import (
	"slices"
	"sync"
	"testing"
)

// spreadAddrs returns word addresses whose pages span several 16 MB chunks
// of the page table: both sides of a chunk boundary, pages far apart
// inside one chunk, the page where the home region ends and the OOP
// region begins (the split is line-aligned, not page-aligned), and the
// OOP region's first full page and last page at the top of a 512 GB
// layout. Every address is on a distinct page.
func spreadAddrs() []PAddr {
	l := NewLayout(512<<30, 0.10)
	const chunk = 1 << chunkShift
	return []PAddr{
		0,
		PageSize + 8,
		chunk - PageSize,
		chunk,
		chunk + 5*PageSize + 64,
		7*chunk + 3*PageSize,
		l.OOP.Base - WordSize,
		PageAddr(l.OOP.Base) + PageSize,
		PageAddr(l.OOP.Base) + 129*PageSize,
		l.OOP.End() - WordSize,
	}
}

// TestStoreChunkedPages checks reads, writes, page counting and cross-page
// writes over pages in several chunks.
func TestStoreChunkedPages(t *testing.T) {
	s := NewStore()
	addrs := spreadAddrs()
	for i, a := range addrs {
		s.WriteWord(a, uint64(i)+1)
	}
	for i, a := range addrs {
		if got := s.ReadWord(a); got != uint64(i)+1 {
			t.Fatalf("ReadWord(%v) = %d, want %d", a, got, i+1)
		}
		if got := s.ReadWord(a + PageSize); got != 0 && !slices.Contains(addrs, a+PageSize) {
			t.Fatalf("ReadWord(%v) of an unwritten page = %d", a+PageSize, got)
		}
	}
	if got := s.PagesAllocated(); got != len(addrs) {
		t.Fatalf("PagesAllocated = %d, want %d", got, len(addrs))
	}
	// A write straddling a chunk boundary lands in both chunks and
	// materializes exactly the four pages it touches.
	b := make([]byte, 3*PageSize)
	for i := range b {
		b[i] = byte(i)
	}
	start := PAddr(3<<chunkShift) - PageSize - 100
	s.Write(start, b)
	got := make([]byte, len(b))
	s.Read(start, got)
	if !slices.Equal(got, b) {
		t.Fatal("cross-chunk write did not read back")
	}
	if want := len(addrs) + 4; s.PagesAllocated() != want {
		t.Fatalf("PagesAllocated after a 4-page write = %d, want %d", s.PagesAllocated(), want)
	}
}

// TestStoreChunkedIterationOrder checks that Pages visits every page once,
// in ascending address order, across chunk boundaries, whatever the write
// order was, and that breaking out of the loop stops the walk.
func TestStoreChunkedIterationOrder(t *testing.T) {
	s := NewStore()
	addrs := spreadAddrs()
	for i := len(addrs) - 1; i >= 0; i-- {
		s.WriteWord(addrs[i], 1)
	}
	var want []PAddr
	for _, a := range addrs {
		want = append(want, PageAddr(a))
	}
	var got []PAddr
	for base, data := range s.Pages() {
		if len(data) != PageSize {
			t.Fatalf("page %v has %d bytes", base, len(data))
		}
		got = append(got, base)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Pages visited %v, want %v", got, want)
	}
	got = got[:0]
	for base := range s.Pages() {
		got = append(got, base)
		if len(got) == 5 {
			break
		}
	}
	if !slices.Equal(got, want[:5]) {
		t.Fatalf("Pages with a break visited %v, want the prefix %v", got, want[:5])
	}
}

// TestStoreChunkedCloneCopyReset checks Clone, CopyFrom and Reset over a
// multi-chunk store: copies are deep, page counts carry over, and Reset
// leaves nothing behind.
func TestStoreChunkedCloneCopyReset(t *testing.T) {
	s := NewStore()
	addrs := spreadAddrs()
	for i, a := range addrs {
		s.WriteWord(a, uint64(i)+10)
	}
	c := s.Clone()
	d := NewStore()
	d.WriteWord(1<<40, 99) // CopyFrom must drop this
	d.CopyFrom(s)
	for i, a := range addrs {
		s.WriteWord(a, 0)
		for _, cp := range []*Store{c, d} {
			if got := cp.ReadWord(a); got != uint64(i)+10 {
				t.Fatalf("copy reads %d at %v, want %d", got, a, i+10)
			}
		}
	}
	if d.ReadWord(1<<40) != 0 {
		t.Fatal("CopyFrom kept a page the source does not have")
	}
	for _, cp := range []*Store{c, d} {
		if cp.PagesAllocated() != len(addrs) {
			t.Fatalf("copy has %d pages, want %d", cp.PagesAllocated(), len(addrs))
		}
	}
	c.Reset()
	if c.PagesAllocated() != 0 || c.ReadWord(addrs[3]) != 0 {
		t.Fatal("Reset left pages behind")
	}
	n := 0
	for range c.Pages() {
		n++
	}
	if n != 0 {
		t.Fatalf("Reset store iterates %d pages", n)
	}
	c.WriteWord(addrs[3], 5)
	if c.PagesAllocated() != 1 || c.ReadWord(addrs[3]) != 5 || d.ReadWord(addrs[3]) != 13 {
		t.Fatal("store unusable or aliased after Reset")
	}
}

// TestStoreConcurrentReaders runs parallel Read/ReadWord/ReadLine calls on
// a populated store (HOOP's parallel recovery reads this way): reads must
// not write any shared state, which the race detector checks, and every
// goroutine must see the same contents.
func TestStoreConcurrentReaders(t *testing.T) {
	s := NewStore()
	addrs := spreadAddrs()
	for i, a := range addrs {
		s.WriteWord(a, uint64(i)+1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 2*PageSize)
			for rep := 0; rep < 200; rep++ {
				for j := range addrs {
					i := (j + g + rep) % len(addrs)
					a := addrs[i]
					if s.ReadWord(a) != uint64(i)+1 {
						errs <- "ReadWord mismatch"
						return
					}
					s.Read(PageAddr(a), buf)
					if s.ReadLine(a)[a&LineOffMask] != byte(i+1) {
						errs <- "ReadLine mismatch"
						return
					}
					s.ReadWord(a + 64*PageSize) // absent page
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
