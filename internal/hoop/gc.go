package hoop

import (
	"math/bits"
	"slices"

	"hoop/internal/mem"
	"hoop/internal/sim"
	"hoop/internal/telemetry"
)

// runGC executes one garbage-collection pass (Algorithm 1): scan the
// committed transactions in reverse commit order, coalesce updates to the
// same words in a line-keyed hash table so each home location is written
// at most once and each home line by one device write, migrate the newest
// versions to the home region, advance the durable watermark, drop
// now-stale mapping-table entries, and recycle fully migrated OOP blocks.
//
// start is when the pass begins; for background GC this is the period
// boundary, for on-demand GC the stalled core's current time (the paper's
// "on-demand GC has to take place on the critical path"). The returned
// time is when the pass completes. GC traffic goes through the shared
// memory controller, so it contends with foreground accesses for banks and
// channel bandwidth — the effect Figure 10 measures.
func (s *Scheme) runGC(start sim.Time, onDemand bool) sim.Time {
	// All of the pass's device work is issued at the pass's start time:
	// the burst piles up queue backlog that foreground accesses then
	// contend with — the interference Figure 10 measures — while the
	// pass's own completion time comes from the accumulated queueing.
	arr := sim.MaxTime(start, s.gcBusyUntil)
	t := arr
	s.statGCRuns.Inc()
	if onDemand {
		s.statGCOnDemand.Inc()
	}
	tel := s.ctx.Tel
	if tel.Enabled(telemetry.KindGCStart) {
		var flags uint8
		if onDemand {
			flags = telemetry.FlagOnDemand
		}
		tel.Emit(telemetry.Event{
			Kind:  telemetry.KindGCStart,
			Time:  arr,
			Core:  -1,
			Aux:   int64(len(s.pending)),
			Flags: flags,
		})
	}
	scannedBefore := s.statGCScanned.Value()
	migratedBefore := s.statGCMigrated.Value()

	newWM := s.watermark
	if len(s.pending) > 0 {
		newWM = s.pending[len(s.pending)-1].seq

		// Line 4: read the address memory slices of the committed set.
		t = sim.MaxTime(t, s.ctx.Ctrl.Read(s.logs[0].base, len(s.pending)*commitRecSize, arr))

		// Lines 5–19: reverse-time-order scan with coalescing. The first
		// value seen for a word during the reverse scan is the newest.
		// s.gcLines is the pass-scoped coalescing table, keyed by home
		// line, epoch-cleared and reused so a steady GC cadence performs
		// no allocation.
		h := &s.gcLines
		h.Clear()
		var modified, uncoalesced int64
		store := s.ctx.Dev.Store()
		var raw [SliceSize]byte
		for i := len(s.pending) - 1; i >= 0; i-- {
			p := &s.pending[i]
			for a := p.last; a != 0; {
				store.Read(a, raw[:])
				t = sim.MaxTime(t, s.ctx.Ctrl.Read(a, SliceSize, arr))
				s.statGCScanned.Add(SliceSize)
				ds, err := DecodeDataSlice(raw[:])
				if err != nil {
					panic("hoop: corrupt data slice during GC: " + err.Error())
				}
				// Within a slice, higher indices were packed later;
				// reverse order keeps the newest value.
				for j := ds.Count - 1; j >= 0; j-- {
					modified += mem.WordSize
					if wv, fresh := h.Word(uint64(ds.Addrs[j])); fresh {
						*wv = ds.Words[j]
					} else if s.cfg.DisableCoalescing {
						// Ablation: write the stale version home too (the
						// newest still lands through the coalesced set, so
						// only traffic and time change).
						t = sim.MaxTime(t, s.ctx.Ctrl.Write(mem.LineAddr(ds.Addrs[j]), mem.WordSize, arr))
						uncoalesced += mem.WordSize
					}
				}
				a = ds.Prev
			}
		}

		// Lines 20–27: migrate the coalesced set home, one write per home
		// line, smallest address first (lines ascending, words ascending
		// within a line) for deterministic device timing and persist order.
		var migrated int64
		for _, line := range h.Lines() {
			lw := h.Line(line)
			lineAddr := mem.PAddr(line << mem.LineShift)
			for m := lw.Mask; m != 0; m &= m - 1 {
				w := bits.TrailingZeros8(m)
				store.Write(lineAddr+mem.PAddr(w*mem.WordSize), lw.Words[w][:])
			}
			n := bits.OnesCount8(lw.Mask) * mem.WordSize
			t = sim.MaxTime(t, s.ctx.Ctrl.Write(lineAddr, n, arr))
			migrated += int64(n)
			s.evbuf.add(line)
			// The home copy is now the newest version unless a live
			// transaction has written the line since.
			if ls, ok := s.lines.Get(line); ok {
				if _, live := s.liveCore(ls.writer); !live {
					s.lines.Delete(line)
				}
			}
		}
		migrated += uncoalesced
		s.gcModifiedBytes += modified
		s.gcMigratedBytes += migrated
		s.statGCMigrated.Add(migrated)
		s.statGCCoalesced.Add(modified - migrated)

		// Block accounting: the migrated transactions' slices are dead.
		for i := range s.pending {
			for _, bc := range s.pending[i].blocks {
				s.blocks[bc.block].pending -= bc.n
			}
		}
		s.pending = s.pending[:0]

		// Durable watermark: recovery must never replay migrated commits,
		// because their blocks may be recycled below.
		s.writeWatermark(newWM)
		t = sim.MaxTime(t, s.ctx.Ctrl.Write(s.wmAddr, mem.LineSize, arr))
		s.watermark = newWM
		// Every commit record at or below the watermark is dead: the
		// rings are empty again.
		for m := range s.logs {
			s.logs[m].live = 0
		}
	}

	// Drop mapping-table entries whose data is now (at or below the
	// watermark) guaranteed to be in the home region. Entries owned by
	// still-live transactions survive. (u64map iteration is deterministic,
	// but the sort stays: removals must happen in address order so the
	// telemetry stream and any future timing per removal are
	// history-independent.)
	stale := s.gcStale[:0]
	s.table.entries.Range(func(line uint64, e *mapEntry) bool {
		if e.ownerTx == 0 && e.seq <= s.watermark {
			stale = append(stale, line)
		}
		return true
	})
	s.gcStale = stale
	slices.Sort(stale)
	for _, line := range stale {
		if e, ok := s.table.remove(line); ok {
			s.blocks[e.block].mapRefs--
			if tel.Enabled(telemetry.KindMapEvict) {
				tel.Emit(telemetry.Event{
					Kind: telemetry.KindMapEvict,
					Time: t,
					Core: -1,
					Addr: mem.PAddr(line << mem.LineShift),
				})
			}
		}
	}

	// Lines 28–29: recycle fully migrated blocks.
	for i := range s.blocks {
		if s.isActiveBlock(i) {
			continue
		}
		if s.blocks[i].reclaimable() {
			seq := s.blocks[i].seq
			s.blocks[i] = blockInfo{state: BlkUnused, seq: seq}
			s.writeHeader(i, BlkUnused, s.gcAgent, t)
			s.freeBlocks++
		}
	}

	if tel.Enabled(telemetry.KindGCEnd) {
		tel.Emit(telemetry.Event{
			Kind:  telemetry.KindGCEnd,
			Time:  t,
			Core:  -1,
			Bytes: s.statGCMigrated.Value() - migratedBefore,
			Aux:   s.statGCScanned.Value() - scannedBefore,
		})
	}
	s.gcBusyUntil = t
	return t
}

// isActiveBlock reports whether block i is some controller's open block.
func (s *Scheme) isActiveBlock(i int) bool {
	for _, a := range s.active {
		if a == i {
			return true
		}
	}
	return false
}

// writeWatermark persists the migration watermark record.
func (s *Scheme) writeWatermark(seq uint64) {
	var b [mem.LineSize]byte
	putU32(b[0:], watermarkMagic)
	putU64(b[8:], seq)
	s.ctx.Dev.Store().Write(s.wmAddr, b[:])
}

// readWatermark parses the durable watermark; absent/uninitialized reads
// as zero.
func (s *Scheme) readWatermark() uint64 {
	var b [mem.LineSize]byte
	s.ctx.Dev.Store().Read(s.wmAddr, b[:])
	if getU32(b[0:]) != watermarkMagic {
		return 0
	}
	return getU64(b[8:])
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
