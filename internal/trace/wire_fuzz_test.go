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

// crafted builds a v4 trace from the header and body, byte for byte.
func crafted(body ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	for _, p := range body {
		b = append(b, p...)
	}
	return b
}

// member deflates p into one complete member, the way the Writer does.
func member(t testing.TB, p []byte) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(p)
	fw.Close()
	return buf.Bytes()
}

// uv appends uvarints to a record prefix.
func uv(rec []byte, us ...uint64) []byte {
	for _, u := range us {
		rec = binary.AppendUvarint(rec, u)
	}
	return rec
}

// TestReaderCraftedChunkAllocs: members whose records overstate or
// corrupt their contents must fail without allocating what they claim.
func TestReaderCraftedChunkAllocs(t *testing.T) {
	valid := member(t, uv([]byte{OpTxBegin}, 3))
	cases := []struct {
		name string
		raw  []byte
	}{
		{"store payload claimed but absent", crafted(member(t, uv([]byte{OpStore}, 0, 0x40, maxStoreSize)))},
		{"store size out of range", crafted(member(t, uv([]byte{OpStore}, 0, 0x40, maxStoreSize+1)))},
		{"load size out of range", crafted(member(t, uv([]byte{OpLoad}, 0, 0x40, maxStoreSize+1)))},
		{"scan item count out of range", crafted(member(t, uv([]byte{OpScan}, 0, 0x40, 1<<32)))},
		{"thread out of range", crafted(member(t, uv([]byte{OpTxBegin}, 1<<16)))},
		{"varint overflow", crafted(member(t, append([]byte{OpTxBegin}, bytes.Repeat([]byte{0xFF}, 11)...)))},
		{"truncated member", crafted(valid[:len(valid)-1])},
		{"trailing garbage", crafted(valid, []byte{0xFF, 0xFF})},
		{"deflate bomb of zero bytes", crafted(member(t, make([]byte, 8<<20)))},
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
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: failed read allocated %d bytes, limit %d", c.name, got, 1<<20)
		}
	}
}

// FuzzTraceReader: no input may panic the reader, and the reader must
// error rather than silently truncate — a trace that decodes cleanly was
// consumed whole, so the same bytes minus the last must fail. A clean
// decode must also re-encode and decode back to the same ops.
func FuzzTraceReader(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v4.trc"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(crafted(member(f, uv([]byte{OpStore}, 0, 0x40, maxStoreSize))))
	f.Add(crafted(member(f, uv([]byte{OpTxBegin}, 2, uint64(OpTxEnd), 2)), member(f, uv([]byte{OpTxAbort}, 1))))
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
