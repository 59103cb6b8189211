package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// craftedChunk builds a v3 trace of one chunk whose header claims opLen
// op-stream bytes, dataLen arena bytes and opCount ops, followed by body.
func craftedChunk(opLen, dataLen, opCount uint32, flags byte, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, opLen)
	b = binary.LittleEndian.AppendUint32(b, dataLen)
	b = binary.LittleEndian.AppendUint32(b, opCount)
	b = append(b, flags)
	return append(b, body...)
}

// deflated compresses p the way the Writer compresses op streams.
func deflated(t testing.TB, p []byte) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(p)
	fw.Close()
	return buf.Bytes()
}

// TestReaderCraftedChunkAllocs: chunk headers that overstate their
// contents must fail without allocating what they claim. The 21-byte
// input (an empty chunk claiming 1<<26 ops) once cost a 3 GiB op queue.
func TestReaderCraftedChunkAllocs(t *testing.T) {
	bomb := deflated(t, make([]byte, 8<<20)) // inflates far past maxChunkSection
	cases := []struct {
		name  string
		raw   []byte
		limit uint64 // bytes the failed read may allocate
	}{
		{"op count without op bytes", craftedChunk(0, 0, 1<<26, 0, nil), 1 << 20},
		{"op count beyond op bytes", craftedChunk(4, 0, 5, 0, []byte{1, 2, 1, 2}), 1 << 20},
		{"op stream claimed but absent", craftedChunk(maxChunkSection, 0, 1, 0, []byte{1}), 1 << 20},
		{"data arena claimed but absent", craftedChunk(1, maxChunkSection, 1, 0, []byte{1}), 1 << 20},
		{"oversized section", craftedChunk(1<<30, 0, 1, 0, nil), 1 << 20},
		{"deflate bomb", craftedChunk(uint32(len(bomb)), 0, 1, flagDeflate, bomb), 16 << 20},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := NewReader(bytes.NewReader(c.raw)).ReadAll()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: crafted %d-byte trace decoded without error", c.name, len(c.raw))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("%s: failed read allocated %d bytes, limit %d", c.name, got, c.limit)
		}
	}
	if n := len(craftedChunk(0, 0, 1<<26, 0, nil)); n != 21 {
		t.Fatalf("regression input is %d bytes, want 21", n)
	}
}

// FuzzTraceReader: no input may panic the reader, and the reader must
// error rather than silently truncate — a trace that decodes cleanly was
// consumed whole, so the same bytes minus the last must fail. A clean
// decode must also re-encode and decode back to the same ops.
func FuzzTraceReader(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v3.trc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(craftedChunk(0, 0, 1<<26, 0, nil))
	f.Add(craftedChunk(3, 0, 2, 0, []byte{leadTxBegin, leadTxEnd, leadTxAbort}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		if _, err := NewReader(bytes.NewReader(data[:len(data)-1])).ReadAll(); err == nil {
			t.Fatalf("%d-byte trace decodes cleanly with its last byte dropped", len(data))
		}
		wire, err := encodeOps(ops)
		if err != nil {
			t.Fatalf("decoded ops do not re-encode: %v", err)
		}
		again, err := NewReader(bytes.NewReader(wire)).ReadAll()
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		opsEquivalent(t, again, ops)
	})
}
