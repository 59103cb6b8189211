// Package trace records and replays memory-operation traces. A trace
// captures the exact operation stream a workload issued — transaction
// boundaries, loads, stores with their data — in a compact binary format,
// so a run can be (a) inspected offline, (b) replayed bit-identically
// against any persistence scheme, or (c) exported for analysis outside the
// simulator. This mirrors how the paper's platform consumed Pin-captured
// application traces.
//
// The wire format is v4: an 8-byte header followed by DEFLATE members,
// each holding a plain varint record stream (see Writer). Traces in the
// older v1–v3 formats are rejected with an error asking for a
// re-recording.
package trace

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"hoop/internal/mem"
)

// Op kinds.
const (
	OpTxBegin byte = iota + 1
	OpTxEnd
	OpLoad
	OpStore
	OpTxAbort
	OpScan
)

// Op is one traced operation. Thread identifies the issuing workload
// thread; Data is present only for stores. Ops a Reader decodes alias its
// internal arena: treat Data as read-only.
type Op struct {
	Kind   byte
	Thread uint16
	Addr   mem.PAddr
	Size   uint32
	Data   []byte
}

// String renders the op for human inspection.
func (o Op) String() string {
	switch o.Kind {
	case OpTxBegin:
		return fmt.Sprintf("t%d TX_BEGIN", o.Thread)
	case OpTxEnd:
		return fmt.Sprintf("t%d TX_END", o.Thread)
	case OpTxAbort:
		return fmt.Sprintf("t%d TX_ABORT", o.Thread)
	case OpLoad:
		return fmt.Sprintf("t%d LOAD  %v +%d", o.Thread, o.Addr, o.Size)
	case OpStore:
		return fmt.Sprintf("t%d STORE %v +%d", o.Thread, o.Addr, o.Size)
	case OpScan:
		return fmt.Sprintf("t%d SCAN  %d items / %d B", o.Thread, o.Size, uint64(o.Addr))
	}
	return fmt.Sprintf("t%d ?%d", o.Thread, o.Kind)
}

// Magic and version of the binary format. The file header is 8 bytes:
// magic u32le, version u32le.
const (
	magic   = 0x484F5452 // "HOTR"
	version = 4
)

// maxStoreSize bounds a single load's or store's size; anything larger in
// a stream is treated as corruption.
const maxStoreSize = 1 << 20

// Writer streams ops into an io.Writer in the v4 format. After the header
// the file is a sequence of DEFLATE members; each inflates to a plain
// record stream, one record per op:
//
//	u8      kind
//	uvarint thread
//	uvarint addr, uvarint size   (load, scan, store only)
//	[size]  payload              (store only)
//
// Scan ops reuse the header fields for accounting: Size carries the item
// count and Addr the total value bytes the scan read. The compressor
// streams, so memory stays bounded for arbitrarily long recordings. Write
// copies what it needs from op.Data before returning, so callers may
// reuse their buffers.
type Writer struct {
	w       *bufio.Writer
	zw      *flate.Writer
	started bool
	open    bool // a member is open
	count   int64
	rec     []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (t *Writer) start() error {
	if t.started {
		return nil
	}
	t.started = true
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:], magic)
	binary.LittleEndian.PutUint32(h[4:], version)
	_, err := t.w.Write(h[:])
	return err
}

// Write appends one op.
func (t *Writer) Write(op Op) error {
	if err := t.start(); err != nil {
		return err
	}
	switch op.Kind {
	case OpTxBegin, OpTxEnd, OpTxAbort, OpScan:
	case OpLoad, OpStore:
		if op.Kind == OpStore && uint32(len(op.Data)) != op.Size {
			return fmt.Errorf("trace: store op with %d data bytes but size %d", len(op.Data), op.Size)
		}
		if op.Size > maxStoreSize {
			return fmt.Errorf("trace: unreasonable op size %d", op.Size)
		}
	default:
		return fmt.Errorf("trace: unknown op kind %d", op.Kind)
	}
	if !t.open {
		if t.zw == nil {
			zw, err := flate.NewWriter(t.w, flate.DefaultCompression)
			if err != nil {
				return fmt.Errorf("trace: flate init: %w", err)
			}
			t.zw = zw
		} else {
			t.zw.Reset(t.w)
		}
		t.open = true
	}
	t.rec = binary.AppendUvarint(append(t.rec[:0], op.Kind), uint64(op.Thread))
	if op.Kind == OpLoad || op.Kind == OpScan || op.Kind == OpStore {
		t.rec = binary.AppendUvarint(t.rec, uint64(op.Addr))
		t.rec = binary.AppendUvarint(t.rec, uint64(op.Size))
		t.rec = append(t.rec, op.Data...)
	}
	if _, err := t.zw.Write(t.rec); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	t.count++
	return nil
}

// Count reports ops written.
func (t *Writer) Count() int64 { return t.count }

// Flush closes the open member and drains the buffer, so the file is a
// complete trace after every flush; call it before closing the underlying
// writer. Writing after a flush starts a new member.
func (t *Writer) Flush() error {
	if err := t.start(); err != nil {
		return err
	}
	if t.open {
		t.open = false
		if err := t.zw.Close(); err != nil {
			return fmt.Errorf("trace: closing member: %w", err)
		}
	}
	return t.w.Flush()
}

// Reader streams ops from an io.Reader. It trusts nothing it reads: every
// field is range-checked, and a store payload grows only as its bytes
// arrive, so a record that overstates its size costs only what is present.
type Reader struct {
	r       *bufio.Reader // the file; a ByteReader, so inflation never reads past a member
	zr      io.ReadCloser // inflater for the current member
	rec     *bufio.Reader // the current member's record stream
	started bool
	open    bool // a member is being decoded
	arena   byteArena
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (t *Reader) header() error {
	var h [8]byte
	if _, err := io.ReadFull(t.r, h[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != magic {
		return fmt.Errorf("trace: bad magic")
	}
	switch v := binary.LittleEndian.Uint32(h[4:]); {
	case v == version:
		return nil
	case v >= 1 && v < version:
		return fmt.Errorf("trace: v%d trace predates the v%d wire format; re-record it with the current hooptrace", v, version)
	default:
		return fmt.Errorf("trace: unsupported version %d", v)
	}
}

// Read returns the next op, or io.EOF at the end of the trace. The trace
// ends only where the file ends on a member boundary; a member cut short
// or bytes that do not inflate are errors.
func (t *Reader) Read() (Op, error) {
	if !t.started {
		if err := t.header(); err != nil {
			return Op{}, err
		}
		t.started = true
	}
	for {
		if !t.open {
			if _, err := t.r.Peek(1); err == io.EOF {
				return Op{}, io.EOF
			} else if err != nil {
				return Op{}, fmt.Errorf("trace: reading member: %w", err)
			}
			if t.zr == nil {
				t.zr = flate.NewReader(t.r)
				t.rec = bufio.NewReader(t.zr)
			} else {
				if err := t.zr.(flate.Resetter).Reset(t.r, nil); err != nil {
					return Op{}, fmt.Errorf("trace: opening member: %w", err)
				}
				t.rec.Reset(t.zr)
			}
			t.open = true
		}
		kind, err := t.rec.ReadByte()
		if err == io.EOF {
			t.open = false
			continue
		}
		if err != nil {
			return Op{}, fmt.Errorf("trace: inflating member: %w", err)
		}
		return t.record(kind)
	}
}

// record decodes the rest of the record that starts with kind.
func (t *Reader) record(kind byte) (Op, error) {
	switch kind {
	case OpTxBegin, OpTxEnd, OpTxAbort, OpLoad, OpScan, OpStore:
	default:
		return Op{}, fmt.Errorf("trace: unknown op kind %d", kind)
	}
	th, err := t.uvarint()
	if err != nil {
		return Op{}, err
	}
	if th > 0xFFFF {
		return Op{}, fmt.Errorf("trace: thread %d out of range", th)
	}
	op := Op{Kind: kind, Thread: uint16(th)}
	if kind == OpTxBegin || kind == OpTxEnd || kind == OpTxAbort {
		return op, nil
	}
	addr, err := t.uvarint()
	if err != nil {
		return Op{}, err
	}
	size, err := t.uvarint()
	if err != nil {
		return Op{}, err
	}
	if size > 1<<32-1 || kind != OpScan && size > maxStoreSize {
		return Op{}, fmt.Errorf("trace: unreasonable op size %d", size)
	}
	op.Addr, op.Size = mem.PAddr(addr), uint32(size)
	if kind == OpStore {
		if op.Data, err = t.payload(int(size)); err != nil {
			return Op{}, err
		}
	}
	return op, nil
}

// truncated wraps a mid-record read error.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated record: %w", err)
}

func (t *Reader) uvarint() (uint64, error) {
	u, err := binary.ReadUvarint(t.rec)
	if err != nil {
		return 0, truncated(err)
	}
	return u, nil
}

// payload reads a store's n data bytes. Small payloads land in the
// grow-only arena; a large one doubles its buffer only as bytes arrive.
func (t *Reader) payload(n int) ([]byte, error) {
	if n <= arenaBlock/2 {
		b := t.arena.alloc(n)
		if _, err := io.ReadFull(t.rec, b); err != nil {
			return nil, truncated(err)
		}
		return b, nil
	}
	var b []byte
	for len(b) < n {
		b = slices.Grow(b, min(n-len(b), max(len(b), arenaBlock)))
		next := min(cap(b), n)
		if _, err := io.ReadFull(t.rec, b[len(b):next]); err != nil {
			return nil, truncated(err)
		}
		b = b[:next]
	}
	return b[:n:n], nil
}

// ReadAll drains the trace.
func (t *Reader) ReadAll() ([]Op, error) {
	var ops []Op
	for {
		op, err := t.Read()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}

// byteArena hands out chunks of a grow-only backing store. Previously
// returned slices stay valid forever (blocks are never reused), which is
// what lets decoded ops alias it.
type byteArena struct {
	cur []byte
}

const arenaBlock = 64 << 10

func (a *byteArena) alloc(n int) []byte {
	if len(a.cur)+n > cap(a.cur) {
		a.cur = make([]byte, 0, arenaBlock)
	}
	b := a.cur[len(a.cur) : len(a.cur)+n : len(a.cur)+n]
	a.cur = a.cur[:len(a.cur)+n]
	return b
}
