package hoop

import (
	"math/bits"

	"hoop/internal/cache"
	"hoop/internal/mem"
	"hoop/internal/persist"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
	"hoop/internal/u64map"
)

func popcount8(m uint8) int { return bits.OnesCount8(m) }

// Config sizes the HOOP hardware structures (§III-H defaults).
type Config struct {
	// MapTableBytes is the mapping-table budget (paper default 2 MB total,
	// i.e. 256 KB per core on 8 active cores). Figure 13 sweeps this.
	MapTableBytes int
	// EvictBufBytes is the eviction-buffer budget (paper default 128 KB).
	EvictBufBytes int
	// OOPBufBytesPerCore is the per-core OOP data buffer (paper: 1 KB).
	OOPBufBytesPerCore int
	// CommitLogBytes is the durable commit-record ring (the address
	// memory slices of §III-D).
	CommitLogBytes int
	// GCPeriod is the background garbage-collection interval (paper
	// default 10 ms; Figure 10 sweeps 2–14 ms).
	GCPeriod sim.Duration

	// DisablePacking ablates the data-packing optimization of §III-C /
	// Figure 3: every word update is flushed as its own memory slice
	// instead of packing eight words per slice. Used by the ablation
	// study to quantify what packing buys.
	DisablePacking bool

	// DisableCoalescing ablates the GC data-coalescing optimization of
	// §III-E: the garbage collector writes every scanned version back to
	// the home region instead of only the newest version per word. (The
	// functional outcome is identical — the newest value still lands
	// last — only the traffic and time change.)
	DisableCoalescing bool

	// CondenseMapping enables the §III-I future-work optimization: the
	// mapping table exploits spatial locality by letting entries for
	// neighbouring cache lines (4-line groups) share one hardware entry,
	// stretching the same table budget over a larger reach.
	CondenseMapping bool

	// Controllers configures the §III-I multi-memory-controller extension
	// (default 1). Physical addresses interleave across controllers at
	// cache-line granularity; each controller owns its own OOP buffers,
	// blocks and commit-log ring, and Tx_end runs the two-phase commit:
	// participants persist PREPARE records for their slice chains, the
	// coordinator's DECISION record makes the transaction durable.
	Controllers int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		MapTableBytes:      2 << 20,
		EvictBufBytes:      128 << 10,
		OOPBufBytesPerCore: 1 << 10,
		CommitLogBytes:     4 << 20,
		GCPeriod:           10 * sim.Millisecond,
	}
}

// Scheme is the HOOP persistence mechanism (implements persist.Scheme).
type Scheme struct {
	ctx persist.Context
	cfg Config

	alloc persist.TxnAllocator

	// Durable-layout bookkeeping.
	nMC        int // memory controllers (1 unless Config.Controllers > 1)
	wmAddr     mem.PAddr
	logs       []commitLog // one ring per controller
	nextSeq    uint64      // global commit sequence (starts at 1)
	blockBase  mem.PAddr
	blocks     []blockInfo
	active     []int // per-controller active data block (-1 = none yet)
	nextScan   []int // per-controller round-robin cursor (uniform wear, §III-D)
	nextBlkSeq uint64
	freeBlocks int

	// Volatile controller state (lost on crash).
	cores []coreState
	table *mapTable
	evbuf *evictBuffer
	// lines is the controller's per-home-line write tracking, one entry per
	// line with un-migrated words (see lineState). It replaces what used to
	// be three parallel maps (last writer, dirty-word mask, newest slice);
	// the open-addressed table keeps Store at one probe with no
	// allocations, and GC clears entries without freeing the backing array.
	lines     u64map.Map[lineState]
	pending   []pendingTx // committed, not yet migrated (commit order)
	watermark uint64      // highest migrated commit sequence

	// Reused hot-path scratch (contents valid only within one call).
	partScratch []int // TxEnd participant list

	nextGC      sim.Time
	gcBusyUntil sim.Time
	gcAgent     int

	// GC working state, reused across passes (epoch-cleared, never freed):
	// the line-keyed coalescing table (newest value per word seen in the
	// reverse scan) and the stale-entry scratch slice.
	gcLines u64map.LineTable
	gcStale []uint64

	// abortScratch collects line keys to drop during TxAbort (reused).
	abortScratch []uint64

	// Interned counter handles for per-event accounting (slice flushes,
	// commits, read-path and GC traffic fire on every hot-path event).
	statSliceFlushes  *sim.Counter
	statTxCommitted   *sim.Counter
	statMapHits       *sim.Counter
	statMapMisses     *sim.Counter
	statParallelReads *sim.Counter
	statEvictBufHits  *sim.Counter
	statGCRuns        *sim.Counter
	statGCOnDemand    *sim.Counter
	statGCScanned     *sim.Counter
	statGCMigrated    *sim.Counter
	statGCCoalesced   *sim.Counter

	// Cumulative GC coalescing accounting (Table IV).
	gcModifiedBytes int64
	gcMigratedBytes int64
}

// lineState is the per-home-line tracking record: which live words the
// home copy is missing (mask), which transaction wrote them last (writer),
// and the newest durable memory slice carrying any of them (slice; zero
// until the first flush — slice addresses always lie inside the OOP
// region, so zero is free as the "not yet flushed" sentinel). An entry
// exists iff mask is non-zero; the GC deletes it when the words migrate
// home.
type lineState struct {
	writer persist.TxID
	slice  mem.PAddr
	mask   uint8
}

// coreState is one core's in-flight transaction context: its share of the
// OOP data buffer plus per-controller chain-building state. The struct is
// reused across transactions: TxBegin rewinds it in place (the mc slice is
// allocated once at construction).
type coreState struct {
	tx      persist.TxID // zero between transactions
	mc      []coreMCState
	txWords int
	evicted []uint64 // home lines evicted while this tx was live
}

// reset rewinds the core for a new transaction, keeping all capacity.
func (cs *coreState) reset(tx persist.TxID) {
	cs.tx = tx
	cs.txWords = 0
	cs.evicted = cs.evicted[:0]
	for m := range cs.mc {
		ms := &cs.mc[m]
		ms.bufN = 0
		ms.lastSlice = 0
		ms.nslices = 0
		ms.txBlocks = ms.txBlocks[:0]
	}
}

// coreMCState is the slice-building state toward one memory controller.
// The packing buffer is the hardware's per-core OOP data-buffer group: at
// most WordsPerSlice words, held inline so filling it is pure array writes
// (same-word coalescing is a linear scan of at most bufN entries — cheaper
// than any hash at this size).
type coreMCState struct {
	buf       [WordsPerSlice]persist.WordUpdate
	bufN      int
	lastSlice mem.PAddr
	nslices   int
	txBlocks  []blockCount // live slices per block from this tx (reused)
}

// blockCount is one (block, slice-count) pair; a transaction touches very
// few blocks, so a scanned pair list beats a map.
type blockCount struct {
	block int
	n     int
}

// addBlockCount bumps blk's count in the pair list, appending on first use.
func addBlockCount(bcs []blockCount, blk int) []blockCount {
	for i := range bcs {
		if bcs[i].block == blk {
			bcs[i].n++
			return bcs
		}
	}
	return append(bcs, blockCount{block: blk, n: 1})
}

// pendingTx is one committed slice chain awaiting migration (a multi-
// controller transaction contributes one entry per participant chain, all
// sharing the transaction's commit sequence). Entries live in s.pending,
// which is truncated — not freed — by the GC, so each slot's blocks slice
// is reused across epochs.
type pendingTx struct {
	seq    uint64
	tx     persist.TxID
	last   mem.PAddr
	blocks []blockCount
	words  int
}

// appendPending extends s.pending by one slot, reusing a truncated slot's
// blocks capacity when one is available, and returns the slot.
func (s *Scheme) appendPending() *pendingTx {
	if len(s.pending) < cap(s.pending) {
		s.pending = s.pending[:len(s.pending)+1]
	} else {
		s.pending = append(s.pending, pendingTx{})
	}
	return &s.pending[len(s.pending)-1]
}

// Latency constants for controller-internal actions.
const (
	// unpackLatency is the metadata-traversal cost when reconstructing a
	// line from a memory slice ("a few cycles", §III-G).
	unpackLatency = 800 * sim.Picosecond // 2 cycles at 2.5 GHz
	// evictBufLatency is a hit in the controller's eviction buffer.
	evictBufLatency = 20 * sim.Nanosecond
	// interMCLatency is one message round between the cache controller
	// and the memory controllers in the two-phase commit (§III-I).
	interMCLatency = 60 * sim.Nanosecond
)

// New builds a HOOP scheme over ctx.
func New(ctx persist.Context, cfg Config) (*Scheme, error) {
	nMC := cfg.Controllers
	if nMC == 0 {
		nMC = 1
	}
	wm, logs, base, nBlocks, err := layoutRegion(ctx.Layout.OOP, cfg.CommitLogBytes, nMC)
	if err != nil {
		return nil, err
	}
	s := &Scheme{
		ctx:        ctx,
		cfg:        cfg,
		nMC:        nMC,
		wmAddr:     wm,
		logs:       logs,
		nextSeq:    1,
		blockBase:  base,
		blocks:     make([]blockInfo, nBlocks),
		active:     make([]int, nMC),
		nextScan:   make([]int, nMC),
		freeBlocks: nBlocks,
		cores:      make([]coreState, ctx.Cores),
		table:      newMapTable(cfg.MapTableBytes, cfg.CondenseMapping),
		evbuf:      newEvictBuffer(cfg.EvictBufBytes),
		nextGC:     cfg.GCPeriod,
		gcAgent:    ctx.Cores, // agent slot after the cores

		statSliceFlushes:  ctx.Stats.Counter(sim.StatSliceFlushes),
		statTxCommitted:   ctx.Stats.Counter(sim.StatTxCommitted),
		statMapHits:       ctx.Stats.Counter(sim.StatMapHits),
		statMapMisses:     ctx.Stats.Counter(sim.StatMapMisses),
		statParallelReads: ctx.Stats.Counter(sim.StatParallelRead),
		statEvictBufHits:  ctx.Stats.Counter(sim.StatEvictBufHits),
		statGCRuns:        ctx.Stats.Counter(sim.StatGCRuns),
		statGCOnDemand:    ctx.Stats.Counter(sim.StatGCOnDemand),
		statGCScanned:     ctx.Stats.Counter(sim.StatGCBytesScanned),
		statGCMigrated:    ctx.Stats.Counter(sim.StatGCBytesMigrated),
		statGCCoalesced:   ctx.Stats.Counter(sim.StatGCBytesCoalesed),
	}
	for c := range s.active {
		s.active[c] = -1
	}
	for i := range s.cores {
		s.cores[i].mc = make([]coreMCState, nMC)
	}
	return s, nil
}

// liveCore returns the core currently running tx, if any. Live
// transactions are exactly the cores' active slots, so a scan of the (at
// most 32) cores replaces the old live-transaction map.
func (s *Scheme) liveCore(tx persist.TxID) (int, bool) {
	if tx == 0 {
		return 0, false
	}
	for c := range s.cores {
		if s.cores[c].tx == tx {
			return c, true
		}
	}
	return 0, false
}

// sliceOf reports the newest durable slice carrying words of the given
// home line (zero when none); used by the eviction path and tests.
func (s *Scheme) sliceOf(line uint64) mem.PAddr {
	ls, _ := s.lines.Get(line)
	return ls.slice
}

// mcOf routes a home address to its owning memory controller
// (line-interleaved).
func (s *Scheme) mcOf(a mem.PAddr) int {
	if s.nMC == 1 {
		return 0
	}
	return int(mem.LineIndex(a)) % s.nMC
}

// Controllers reports the configured memory-controller count.
func (s *Scheme) Controllers() int { return s.nMC }

// Name implements persist.Scheme.
func (s *Scheme) Name() string { return SchemeName }

// Properties implements persist.Scheme (Table I's HOOP row).
func (s *Scheme) Properties() persist.Properties {
	return persist.Properties{
		ReadLatency:    "Low",
		OnCriticalPath: false,
		NeedFlushFence: false,
		WriteTraffic:   "Low",
	}
}

// TxBegin implements persist.Scheme. The memory controller assigns the
// transaction ID (§III-G); Tx_begin itself costs nothing beyond setting the
// processor's transaction state bit.
func (s *Scheme) TxBegin(core int, now sim.Time) (persist.TxID, sim.Time) {
	tx := s.alloc.Next()
	s.cores[core].reset(tx)
	return tx, now
}

// Store implements persist.Scheme: the cache controller forwards the
// modified words and their home addresses to the OOP data buffer (§III-G).
// Stores add no synchronous persistence work; a full buffer group is
// flushed as a posted 128-byte memory-slice write.
func (s *Scheme) Store(core int, tx persist.TxID, addr mem.PAddr, val []byte, now sim.Time) sim.Time {
	cs := &s.cores[core]
	if cs.tx != tx {
		panic("hoop: store outside the core's active transaction")
	}
	if !mem.IsWordAligned(addr) || len(val)%mem.WordSize != 0 {
		panic("persist: store must be word-aligned")
	}
	flushAt := WordsPerSlice
	if s.cfg.DisablePacking {
		flushAt = 1 // ablation: one slice per word update
	}
	// Word-at-a-time split done inline (persist.WordsOf allocates its
	// result; this loop is under every simulated store).
	for off := 0; off < len(val); off += mem.WordSize {
		wAddr := addr + mem.PAddr(off)
		line := mem.LineIndex(wAddr)
		ls := s.lines.Ref(line)
		ls.mask |= 1 << uint(mem.WordInLine(wAddr))
		ls.writer = tx
		m := s.mcOf(wAddr)
		ms := &cs.mc[m]
		found := false
		for i := 0; i < ms.bufN; i++ {
			if ms.buf[i].Addr == wAddr {
				copy(ms.buf[i].Val[:], val[off:off+mem.WordSize]) // same-word update coalesces in the buffer
				found = true
				break
			}
		}
		if !found {
			w := &ms.buf[ms.bufN]
			w.Addr = wAddr
			copy(w.Val[:], val[off:off+mem.WordSize])
			ms.bufN++
			cs.txWords++
		}
		if ms.bufN >= flushAt {
			now = s.flushSlice(core, m, now)
		}
	}
	return now
}

// flushSlice packs the core's buffered words toward controller m into one
// memory slice and issues it as a posted write to the OOP region (data
// packing, Figure 3).
func (s *Scheme) flushSlice(core, m int, now sim.Time) sim.Time {
	ms := &s.cores[core].mc[m]
	if ms.bufN == 0 {
		return now
	}
	var ds DataSlice
	ds.Count = ms.bufN
	for i := 0; i < ms.bufN; i++ {
		ds.Words[i] = ms.buf[i].Val
		ds.Addrs[i] = ms.buf[i].Addr
	}
	ds.Prev = ms.lastSlice
	ds.First = ms.nslices == 0
	ds.TxID = s.cores[core].tx

	addr, blk, t := s.allocSlice(core, m, now)
	now = t
	enc := ds.Encode()
	s.ctx.Dev.Store().Write(addr, enc[:])
	s.ctx.Ctrl.PostWrite(core, addr, SliceSize, now)
	s.statSliceFlushes.Inc()
	if s.ctx.Tel.Enabled(telemetry.KindSliceWrite) {
		s.ctx.Tel.Emit(telemetry.Event{
			Kind:  telemetry.KindSliceWrite,
			Time:  now,
			Core:  int16(core),
			Tx:    uint64(ds.TxID),
			Addr:  addr,
			Bytes: SliceSize,
			Aux:   int64(ds.Count),
		})
	}
	for i := 0; i < ds.Count; i++ {
		s.lines.Ref(mem.LineIndex(ds.Addrs[i])).slice = addr
	}

	ms.lastSlice = addr
	ms.nslices++
	ms.txBlocks = addBlockCount(ms.txBlocks, blk)
	s.blocks[blk].live++
	ms.bufN = 0
	return now
}

// allocSlice hands out controller m's next memory slice, activating a
// fresh block (round-robin over the controller's stripe for uniform wear)
// when the active one fills. It may stall the caller on an on-demand GC if
// the region is exhausted.
func (s *Scheme) allocSlice(core, m int, now sim.Time) (mem.PAddr, int, sim.Time) {
	if s.active[m] >= 0 && s.blocks[s.active[m]].full() {
		// Seal the block durably.
		s.writeHeader(s.active[m], BlkFull, core, now)
		s.active[m] = -1
	}
	if s.active[m] < 0 {
		idx, ok := s.findFreeBlock(m)
		if !ok {
			now = s.runGC(now, true)
			idx, ok = s.findFreeBlock(m)
			if !ok {
				panic(&regionError{msg: "OOP region exhausted: no reclaimable block (increase OOP region or GC frequency)"})
			}
		}
		s.nextBlkSeq++
		s.blocks[idx] = blockInfo{state: BlkInUse, seq: s.nextBlkSeq, next: 1}
		s.freeBlocks--
		s.writeHeader(idx, BlkInUse, core, now)
		s.active[m] = idx
	}
	b := &s.blocks[s.active[m]]
	a := sliceAddr(s.blockBase, s.active[m], b.next)
	b.next++
	return a, s.active[m], now
}

// findFreeBlock scans controller m's block stripe (blocks with index ≡ m
// mod nMC) round-robin from the last allocation point, implementing the
// paper's uniform-aging order. nextScan[m] holds a stripe-local position.
func (s *Scheme) findFreeBlock(m int) (int, bool) {
	stripe := (len(s.blocks) - m + s.nMC - 1) / s.nMC
	if stripe == 0 {
		return 0, false
	}
	for i := 0; i < stripe; i++ {
		p := (s.nextScan[m] + i) % stripe
		idx := m + p*s.nMC
		if s.blocks[idx].state == BlkUnused {
			s.nextScan[m] = (p + 1) % stripe
			return idx, true
		}
	}
	return 0, false
}

// writeHeader durably updates a block header (posted; ordering with the
// data it guards is not required because recovery trusts only the commit
// log and the watermark).
func (s *Scheme) writeHeader(idx int, state byte, agent int, now sim.Time) {
	s.blocks[idx].state = state
	h := BlockHeader{State: state, Seq: s.blocks[idx].seq, Index: uint64(idx)}
	enc := h.Encode()
	s.ctx.Dev.Store().Write(blockAddr(s.blockBase, idx), enc[:])
	s.ctx.Ctrl.PostWrite(agent, blockAddr(s.blockBase, idx), mem.LineSize, now)
}

// TxEnd implements persist.Scheme: flush the tail memory slice, drain the
// core's posted slice writes, and durably append the commit record (the
// paper's address-memory-slice write). This is the only synchronous
// persistence point in a HOOP transaction (Figure 4d).
func (s *Scheme) TxEnd(core int, tx persist.TxID, now sim.Time) sim.Time {
	cs := &s.cores[core]
	if cs.tx != tx {
		panic("hoop: TxEnd for inactive transaction")
	}
	// Flush every controller's tail slice and find the participants.
	participants := s.partScratch[:0]
	for m := range cs.mc {
		if cs.mc[m].bufN > 0 {
			now = s.flushSlice(core, m, now)
		}
		if cs.mc[m].nslices > 0 {
			participants = append(participants, m)
		}
	}
	s.partScratch = participants[:0]
	if len(participants) > 0 {
		now = s.ctx.Ctrl.Drain(core, now)
		// Ring pressure: every participant ring must have a free slot.
		for _, m := range participants {
			if s.logs[m].live+1 > s.logs[m].capacity {
				now = s.runGC(now, true)
				break
			}
		}
		if len(participants) > 1 {
			// Two-phase commit, Prepare (§III-I): the cache controller
			// waits for all outstanding flushes to be acknowledged.
			now += interMCLatency
		}
		seq := s.nextSeq
		s.nextSeq++
		// Participant PREPARE records (all but the coordinator, which is
		// the first participant), posted then drained; the coordinator's
		// DECISION record commits the transaction.
		for _, m := range participants[1:] {
			at := s.appendCommitRec(m, seq, tx, cs.mc[m].lastSlice, 0)
			s.ctx.Ctrl.PostWrite(core, at, commitRecTraffic, now)
		}
		if len(participants) > 1 {
			now = s.ctx.Ctrl.Drain(core, now)
		}
		coord := participants[0]
		recAddr := s.appendCommitRec(coord, seq, tx, cs.mc[coord].lastSlice, recFlagDecision)
		now = s.ctx.Ctrl.Write(recAddr, commitRecTraffic, now)
		if len(participants) > 1 {
			// Commit phase: the controllers acknowledge the commit
			// message.
			now += interMCLatency
		}
		for _, m := range participants {
			ms := &cs.mc[m]
			p := s.appendPending()
			p.seq, p.tx, p.last, p.words = seq, tx, ms.lastSlice, cs.txWords
			p.blocks = append(p.blocks[:0], ms.txBlocks...)
			cs.txWords = 0 // attribute the word count to one entry only
			for _, bc := range ms.txBlocks {
				s.blocks[bc.block].live -= bc.n
				s.blocks[bc.block].pending += bc.n
			}
		}
		// Resolve mapping entries created by evictions while this tx was
		// live: their data is now committed as of seq.
		for _, line := range cs.evicted {
			if e, ok := s.table.lookup(line); ok && e.ownerTx == tx {
				e.ownerTx = 0
				e.seq = seq
				s.table.insert(line, e)
			}
		}
	}
	cs.tx = 0 // buffers are empty (flushed above); reset(tx) rewinds the rest
	s.statTxCommitted.Inc()
	return now
}

// TxAbort implements persist.Scheme — and is where out-of-place update
// pays off. The transaction's durable traces are only its memory slices in
// the OOP region; no commit record was written, so recovery (which replays
// the commit log alone) can never see them, and the GC (which scans only
// committed pending chains) never migrates them. The abort therefore just
// drops the SRAM buffers and releases the dead slices' block accounting so
// their space recycles — no NVM write, no drain, no rollback traffic.
func (s *Scheme) TxAbort(core int, tx persist.TxID, now sim.Time) sim.Time {
	cs := &s.cores[core]
	if cs.tx != tx {
		panic("hoop: TxAbort for inactive transaction")
	}
	// Release the already-flushed slices: with no pending chain coming,
	// the blocks' live counts drop now and the space reclaims when the
	// blocks' other occupants retire.
	for m := range cs.mc {
		for _, bc := range cs.mc[m].txBlocks {
			s.blocks[bc.block].live -= bc.n
		}
	}
	// Drop line tracking whose newest writer is the aborted transaction:
	// those entries point at dead slices, and a later eviction must not
	// index them in the mapping table. (Older committed-but-unmigrated
	// words of the same lines remain reachable through the commit log; the
	// GC migrates them regardless of this volatile tracking.)
	stale := s.abortScratch[:0]
	s.lines.Range(func(line uint64, ls *lineState) bool {
		if ls.writer == tx {
			stale = append(stale, line)
		}
		return true
	})
	s.abortScratch = stale
	for _, line := range stale {
		s.lines.Delete(line)
	}
	// Un-index mapping-table entries created by evictions of this
	// transaction's lines — they too point at dead slices.
	for _, line := range cs.evicted {
		if e, ok := s.table.lookup(line); ok && e.ownerTx == tx {
			s.table.remove(line)
			s.blocks[e.block].mapRefs--
		}
	}
	cs.reset(0)
	return now
}

// appendCommitRec durably writes a commit record into controller m's ring
// and returns its address. The record body (tx, chain tail, flags) goes
// first and the 8-byte sequence word last: the sequence is the single
// atomic persist unit that makes the record visible to recovery, so a
// crash mid-record leaves the slot's previous sequence (zero or below the
// watermark) and can never pair a fresh sequence with a stale decision
// flag or chain pointer from a recycled slot.
func (s *Scheme) appendCommitRec(m int, seq uint64, tx persist.TxID, last mem.PAddr, flags uint64) mem.PAddr {
	l := &s.logs[m]
	at := l.nextAddr()
	rec := encodeCommitRec(seq, tx, last, flags)
	st := s.ctx.Dev.Store()
	st.Write(at+8, rec[8:])
	st.Write(at, rec[:8])
	l.count++
	l.live++
	return at
}

// ReadMiss implements persist.Scheme (the load path of Figure 6): consult
// the mapping table; on a hit read the OOP slice (in parallel with the home
// line when the slice holds only part of the line), remove the entry (the
// newest version now lives in the cache hierarchy), and fill dirty so a
// future eviction re-persists out-of-place. On a miss, check the eviction
// buffer, then fall back to the home region.
func (s *Scheme) ReadMiss(core int, addr mem.PAddr, now sim.Time) (sim.Time, bool) {
	line := mem.LineIndex(addr)
	if e, ok := s.table.remove(line); ok {
		s.statMapHits.Inc()
		s.blocks[e.block].mapRefs--
		done := s.ctx.Ctrl.Read(e.slice, SliceSize, now)
		if e.count < mem.WordsPerLine {
			// Only the updated words are packed out-of-place: fetch the
			// home line in parallel and reconstruct (§III-G).
			home := s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now)
			done = sim.MaxTime(done, home)
			s.statParallelReads.Inc()
		}
		return done + unpackLatency, true
	}
	s.statMapMisses.Inc()
	if s.evbuf.contains(line) {
		s.statEvictBufHits.Inc()
		return now + evictBufLatency, false
	}
	return s.ctx.Ctrl.Read(mem.LineAddr(addr), mem.LineSize, now), false
}

// Evict implements persist.Scheme. A transactional (persistent-bit) line
// whose words are newer than the home region is indexed in the mapping
// table, pointing reads at the memory slice already holding its newest
// words — the line's data is out-of-place by construction, so the eviction
// itself writes nothing. A transactional line whose words have all been
// migrated home is dropped silently. Non-transactional dirty lines write
// back in place.
func (s *Scheme) Evict(core int, ev cache.Eviction, now sim.Time) sim.Time {
	lineAddr := mem.LineAddr(ev.Line)
	line := mem.LineIndex(ev.Line)
	if !ev.Persistent {
		var buf [mem.LineSize]byte
		s.ctx.View.Read(lineAddr, buf[:])
		s.ctx.Dev.Store().Write(lineAddr, buf[:])
		s.ctx.Ctrl.PostWrite(core, lineAddr, mem.LineSize, now)
		return now
	}
	ls, tracked := s.lines.Get(line)
	if !tracked || ls.mask == 0 {
		// Every word of this line has been migrated home since its last
		// store: the cache copy equals the home copy and can be dropped.
		return now
	}
	entry := mapEntry{mask: ls.mask, count: popcount8(ls.mask)}
	if oc, live := s.liveCore(ls.writer); live {
		// The newest writer is still running: make sure its buffered
		// words are durable (flush the partial slice), and keep the
		// entry until that transaction commits and migrates.
		m := s.mcOf(lineAddr)
		if ls.slice == 0 || s.hasBufferedWords(oc, m, lineAddr) {
			now = s.flushSlice(oc, m, now)
			ls, _ = s.lines.Get(line) // the flush updated the newest slice
		}
		entry.ownerTx = ls.writer
		s.cores[oc].evicted = append(s.cores[oc].evicted, line)
	} else {
		entry.seq = s.nextSeq - 1
	}
	if ls.slice == 0 {
		// No durable slice carries this line's words (can only happen if
		// the writer's buffer was empty after a crash-recovery race);
		// fall back to dropping — the home region is authoritative.
		return now
	}
	if old, prev := s.table.remove(line); prev {
		s.blocks[old.block].mapRefs--
	}
	entry.slice = ls.slice
	entry.block = blockOf(s.blockBase, ls.slice)
	s.blocks[entry.block].mapRefs++
	s.table.insert(line, entry)
	if s.table.overCap() {
		now = s.runGC(now, true)
	}
	return now
}

// hasBufferedWords reports whether core's OOP data buffer toward
// controller m still holds un-flushed words of the given cache line.
func (s *Scheme) hasBufferedWords(core, m int, lineAddr mem.PAddr) bool {
	ms := &s.cores[core].mc[m]
	for i := 0; i < ms.bufN; i++ {
		if mem.LineAddr(ms.buf[i].Addr) == lineAddr {
			return true
		}
	}
	return false
}

// Tick implements persist.Scheme: run background GC at each period boundary
// that has passed.
func (s *Scheme) Tick(now sim.Time) {
	for s.nextGC <= now {
		start := s.nextGC
		s.runGC(start, false)
		s.nextGC += s.cfg.GCPeriod
	}
}

// Crash implements persist.Scheme: every volatile structure is lost — the
// OOP data buffers, the mapping table, the eviction buffer, the block index
// cache, and all in-flight transaction state. NVM contents survive.
func (s *Scheme) Crash() {
	for i := range s.cores {
		s.cores[i].reset(0)
	}
	s.table.reset()
	s.evbuf.reset()
	s.lines.Clear()
	s.pending = s.pending[:0]
	for m := range s.active {
		s.active[m] = -1
	}
	// Block bookkeeping is volatile too; recovery rebuilds it from the
	// durable headers and the commit log.
	for i := range s.blocks {
		s.blocks[i] = blockInfo{}
	}
	s.freeBlocks = 0
	s.ctx.Ctrl.ResetPending()
}

// GCModifiedBytes reports the cumulative bytes of transaction-modified data
// scanned by the GC (the denominator of Table IV's reduction ratio).
func (s *Scheme) GCModifiedBytes() int64 { return s.gcModifiedBytes }

// GCMigratedBytes reports the cumulative bytes the GC actually wrote back
// to the home region after coalescing.
func (s *Scheme) GCMigratedBytes() int64 { return s.gcMigratedBytes }

// DataReduction reports the Table IV metric: the fraction of modified bytes
// that data coalescing avoided writing back to the home region.
func (s *Scheme) DataReduction() float64 {
	if s.gcModifiedBytes == 0 {
		return 0
	}
	return 1 - float64(s.gcMigratedBytes)/float64(s.gcModifiedBytes)
}

// MappingTableLen reports the current number of mapping-table entries.
func (s *Scheme) MappingTableLen() int { return s.table.len() }

// PendingCommits reports committed-but-unmigrated transactions.
func (s *Scheme) PendingCommits() int { return len(s.pending) }

// ForceGC runs a garbage-collection pass immediately (used by the harness
// to flush coalescing state at the end of a measurement window).
func (s *Scheme) ForceGC(now sim.Time) sim.Time { return s.runGC(now, false) }

// Quiesce implements persist.Quiescer: drain the deferred GC work.
func (s *Scheme) Quiesce(now sim.Time) { s.ForceGC(now) }
