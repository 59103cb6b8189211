package u64map

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// TestLineTableMatchesWordMap checks LineTable against the word-keyed
// reference it replaced in the GC passes: a Go map from word address to
// its first (newest) value plus a sort of the word addresses, grouped by
// line afterwards. Streams are newest-first word references with frequent
// repeats, over lines that end up fully or partially covered, and Clear
// runs between passes so stale epochs must never leak into a new pass.
func TestLineTableMatchesWordMap(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var lt LineTable
	for pass := 0; pass < 200; pass++ {
		lt.Clear()
		ref := map[uint64][8]byte{}
		nlines := 1 + r.Intn(64)
		base := uint64(r.Intn(1 << 20))
		for i := 0; i < 1+r.Intn(600); i++ {
			line := base + uint64(r.Intn(nlines))*uint64(1+r.Intn(3))
			word := uint64(r.Intn(8))
			if pass%4 == 0 {
				word = uint64(r.Intn(3)) // partial lines only
			}
			addr := line<<6 | word<<3
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], r.Uint64())

			_, seen := ref[addr]
			slot, fresh := lt.Word(addr)
			if fresh == seen {
				t.Fatalf("pass %d: Word(%#x) fresh = %v, reference seen = %v", pass, addr, fresh, seen)
			}
			if fresh {
				*slot = v
				ref[addr] = v
			} else if *slot != ref[addr] {
				t.Fatalf("pass %d: Word(%#x) slot holds %x, want newest %x", pass, addr, *slot, ref[addr])
			}
		}

		// Reference migration order: sorted word addresses grouped by line.
		words := make([]uint64, 0, len(ref))
		for a := range ref {
			words = append(words, a)
		}
		slices.Sort(words)
		var wantLines []uint64
		for _, a := range words {
			if n := len(wantLines); n == 0 || wantLines[n-1] != a>>6 {
				wantLines = append(wantLines, a>>6)
			}
		}
		got := lt.Lines()
		if !slices.Equal(got, wantLines) {
			t.Fatalf("pass %d: Lines = %v, want %v", pass, got, wantLines)
		}
		wi := 0
		for _, line := range got {
			lw := lt.Line(line)
			var wantMask uint8
			for ; wi < len(words) && words[wi]>>6 == line; wi++ {
				w := words[wi] >> 3 & 7
				wantMask |= 1 << w
				if lw.Words[w] != ref[words[wi]] {
					t.Fatalf("pass %d: line %#x word %d = %x, want %x", pass, line, w, lw.Words[w], ref[words[wi]])
				}
			}
			if lw.Mask != wantMask {
				t.Fatalf("pass %d: line %#x mask %08b, want %08b", pass, line, lw.Mask, wantMask)
			}
		}
		if lt.Line(base+1<<40) != nil {
			t.Fatalf("pass %d: Line of an absent line is non-nil", pass)
		}
	}
}

// TestLineTableSteadyStateZeroAlloc locks the GC-cadence guarantee: once
// the table has reached a pass's working size, Clear + refill + Lines +
// Line perform no allocation.
func TestLineTableSteadyStateZeroAlloc(t *testing.T) {
	var lt LineTable
	fill := func() {
		lt.Clear()
		for a := uint64(0); a < 512*64; a += 8 {
			if v, fresh := lt.Word(a ^ 0x1c0); fresh {
				v[0] = byte(a)
			}
		}
		for _, line := range lt.Lines() {
			if lt.Line(line).Mask == 0 {
				t.Fatal("empty line listed")
			}
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
		t.Fatalf("steady-state LineTable pass allocates %v/run, want 0", allocs)
	}
}
