package kv

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pipette/internal/index"
	"pipette/internal/sim"
	"pipette/internal/telemetry"
)

// MaintenanceTick runs one round of background work: if any sealed segment's
// dead fraction has reached CompactMinDeadFrac, the worst one is compacted —
// its live records re-appended to the active log, its file removed. The
// index engine then gets its own maintenance round (LSM level merges ride
// the same cadence as log compaction). Returns whether any work ran and the
// simulated completion time. The owning system calls this from its periodic
// maintenance tick, so reclamation rides the same cadence as writeback and
// FGRC eviction.
func (s *Store) MaintenanceTick(now sim.Time) (bool, sim.Time, error) {
	ran := false
	if victim := s.pickVictim(); victim != nil {
		start := now
		var err error
		if now, err = s.compact(now, victim); err != nil {
			return false, now, err
		}
		if s.tr.Enabled() {
			s.tr.Span(telemetry.TrackKV, "kv.compact", start, now)
		}
		ran = true
	}
	engRan, now, err := s.eng.Tick(now)
	if err != nil {
		return ran, now, err
	}
	return ran || engRan, now, nil
}

// pickVictim returns the sealed segment with the highest dead fraction at or
// above the threshold, scanning in creation order for determinism.
func (s *Store) pickVictim() *segment {
	var best *segment
	for _, id := range s.order {
		sg := s.segs[id]
		// The active segment still takes appends; a damaged one is left
		// where recovery skips its bad record.
		if sg.w != nil || sg.damaged {
			continue
		}
		if sg.deadFrac() < s.cfg.CompactMinDeadFrac {
			continue
		}
		if best == nil || sg.deadFrac() > best.deadFrac() {
			best = sg
		}
	}
	return best
}

// compactChunk is compaction's I/O granularity: the victim is read in
// chunk-aligned reads of this size, and the records it moves are written in
// runs that end on chunk boundaries of the active segment.
const compactChunk = 64 << 10

// compact rewrites sg in one sequential pass: live records move to the
// active segment, tombstones still shadowing older segments are preserved,
// everything else is dropped. Moved records are re-appended verbatim in
// chunk-sized runs, and the index engine is repointed once at the end, in
// key order. Then the segment file is removed and its space returns to the
// filesystem. Deferring the repoint is safe: the pass runs inside one
// maintenance tick, so no lookup can see the index in between.
func (s *Store) compact(now sim.Time, sg *segment) (sim.Time, error) {
	s.ups = s.ups[:0]
	moved, now, err := s.moveRecords(now, sg)
	// What moved reaches the log and the engine even when the pass stopped
	// early, so the engine agrees with acct on every key.
	now, ferr := s.flushRun(now)
	slices.SortFunc(s.ups, func(a, b index.Update) int { return strings.Compare(a.Key, b.Key) })
	now, rerr := s.eng.Repoint(now, s.ups)
	if err = cmp.Or(err, ferr, rerr); err != nil {
		return now, err
	}
	if err := s.dropSegment(sg); err != nil {
		return now, err
	}
	s.stats.Compactions++
	s.stats.ReclaimedBytes += uint64(sg.tail - moved)
	return now, nil
}

// moveRecords scans sg front to back through s.rd, checksum-verifying
// every record, and queues the live ones and the still-needed tombstones
// for re-append, recording an index update per moved live record. A record
// that fails verification stops the pass and marks sg damaged: its bytes
// are never copied, so compaction cannot launder a corrupted record into a
// valid one. Returns the bytes re-appended.
func (s *Store) moveRecords(now sim.Time, sg *segment) (int64, sim.Time, error) {
	s.rd.reset(sg.r, sg.tail)
	var moved int64
	for off := int64(0); off < sg.tail; {
		if off+headerSize > sg.tail {
			return moved, now, s.markDamaged(sg, off)
		}
		hdr, done, err := s.rd.next(now, off, headerSize)
		if now = done; err != nil {
			return moved, now, err
		}
		h, ok := parseHeader(hdr, s.cfg.MaxKeyLen, s.cfg.SegmentBytes, off)
		sz := recordSize(h.keyLen, h.valLen)
		if !ok || off+sz > sg.tail {
			return moved, now, s.markDamaged(sg, off)
		}
		rec, done, err := s.rd.next(now, off, int(sz))
		if now = done; err != nil {
			return moved, now, err
		}
		if fnv32a(rec[1:8], rec[headerSize:]) != h.checksum {
			return moved, now, s.markDamaged(sg, off)
		}
		// The key string is built only for moved live records; the acct
		// probes use the non-allocating map-lookup form.
		kb := rec[headerSize : headerSize+h.keyLen]
		switch {
		case h.tombstone:
			// A tombstone may still be shadowing a record in an older
			// segment. Once the key is live again (or the tombstone's
			// segment is the oldest holder), it can be dropped; re-append
			// it otherwise, to keep deletes durable across recovery.
			if s.tombstoneObsolete(kb, sg.id) {
				break
			}
			id, _, done, err := s.queueRecord(now, rec)
			if now = done; err != nil {
				return moved, now, err
			}
			s.segs[id].dead += sz
			moved += sz
		case s.isCurrent(kb, sg.id, off):
			// Live record: it moves to the active log, and the index engine
			// is repointed at it when the pass ends (a timed engine write —
			// compaction pays the index's update cost too).
			id, recOff, done, err := s.queueRecord(now, rec)
			if now = done; err != nil {
				return moved, now, err
			}
			key := string(kb)
			l := index.Loc{Seg: id, Off: recOff, ValLen: uint32(h.valLen)}
			s.acct[key] = l
			s.ups = append(s.ups, index.Update{Key: key, Loc: l})
			s.segs[id].live += sz
			// The old copy is dead, which matters if the pass stops early.
			sg.live -= sz
			sg.dead += sz
			s.stats.MovedBytes += uint64(sz)
			moved += sz
		}
		off += sz
	}
	return moved, now, nil
}

// markDamaged marks sg so pickVictim passes it over from now on, and reports
// the record at off that failed verification.
func (s *Store) markDamaged(sg *segment, off int64) error {
	sg.damaged = true
	return fmt.Errorf("kv: segment %s corrupt at offset %d; not compacted", sg.name, off)
}

// queueRecord assigns an encoded record the next position in the value log
// and copies it into the pending run, rotating first when it does not fit
// the active segment. The run is written whenever it reaches a compactChunk
// boundary of the segment, so compaction writes whole pages; flushRun
// writes the rest.
func (s *Store) queueRecord(now sim.Time, rec []byte) (uint32, int64, sim.Time, error) {
	var err error
	if s.active.tail+int64(len(rec)) > s.cfg.SegmentBytes {
		if now, err = s.flushRun(now); err != nil {
			return 0, 0, now, err
		}
		if now, err = s.rotate(now); err != nil {
			return 0, 0, now, err
		}
	}
	off := s.active.tail
	if len(s.run) == 0 {
		s.runOff = off
	}
	s.run = append(s.run, rec...)
	s.active.tail += int64(len(rec))
	s.stats.BytesWritten += uint64(len(rec))
	if edge := s.active.tail / compactChunk * compactChunk; edge > s.runOff {
		n := edge - s.runOff
		if now, err = s.writeRun(now, s.run[:n]); err != nil {
			return 0, 0, now, err
		}
		s.run = s.run[:copy(s.run, s.run[n:])]
		s.runOff = edge
	}
	return s.active.id, off, now, nil
}

// flushRun writes whatever the pending run still holds.
func (s *Store) flushRun(now sim.Time) (sim.Time, error) {
	if len(s.run) == 0 {
		return now, nil
	}
	now, err := s.writeRun(now, s.run)
	s.run = s.run[:0]
	return now, err
}

// writeRun writes run at s.runOff of the active segment.
func (s *Store) writeRun(now sim.Time, run []byte) (sim.Time, error) {
	n, done, err := s.active.w.WriteAt(now, run, s.runOff)
	if err != nil {
		return done, err
	}
	if n != len(run) {
		return done, fmt.Errorf("kv: short append %d of %d", n, len(run))
	}
	return done, nil
}

// chunkReader reads a segment front to back in compactChunk-aligned reads
// into a buffer reused across compactions: buf holds the segment's bytes
// [base, base+len(buf)).
type chunkReader struct {
	f    BackendFile
	end  int64 // read limit
	buf  []byte
	base int64
}

func (r *chunkReader) reset(f BackendFile, end int64) {
	r.f, r.end, r.buf, r.base = f, end, r.buf[:0], 0
}

// next returns the segment's bytes [off, off+n), reading further chunks
// when they are not buffered yet. off never moves backward: bytes before it
// are dropped on a refill, and bytes after it — a record straddling the
// chunk boundary — carry over to the front of the buffer. The slice is
// valid until the next call.
func (r *chunkReader) next(now sim.Time, off int64, n int) ([]byte, sim.Time, error) {
	for off+int64(n) > r.base+int64(len(r.buf)) {
		pos := r.base + int64(len(r.buf)) // chunk-aligned
		m := min(int64(compactChunk), r.end-pos)
		if m <= 0 {
			return nil, now, fmt.Errorf("kv: compaction read [%d,+%d) past segment tail %d", off, n, r.end)
		}
		carry := len(r.buf) - int(off-r.base)
		need := carry + int(m)
		buf := r.buf[:cap(r.buf)]
		if len(buf) < need {
			// Room for a small carry on top of a chunk; a record larger
			// than a chunk grows the buffer to fit.
			buf = make([]byte, max(need, 2*compactChunk))
		}
		copy(buf, r.buf[off-r.base:])
		r.buf, r.base = buf[:need], off
		got, done, err := r.f.ReadAt(now, r.buf[carry:], pos)
		if err != nil {
			return nil, done, err
		}
		if int64(got) != m {
			return nil, done, fmt.Errorf("kv: short compaction read %d of %d", got, m)
		}
		now = done
	}
	i := off - r.base
	return r.buf[i : i+int64(n)], now, nil
}

// tombstoneObsolete reports whether a tombstone in segment id no longer
// shadows anything: the key has a live record again, or no older segment
// could still hold a stale version of it.
func (s *Store) tombstoneObsolete(key []byte, id uint32) bool {
	if _, ok := s.acct[string(key)]; ok {
		return true
	}
	// If this is the oldest remaining segment, nothing older can resurrect
	// the key after recovery.
	return len(s.order) > 0 && s.order[0] == id
}

// isCurrent reports whether the record at (id, off) is the one the index
// points at for key.
func (s *Store) isCurrent(key []byte, id uint32, off int64) bool {
	l, ok := s.acct[string(key)]
	return ok && l.Seg == id && l.Off == off
}

// dropSegment closes and deletes sg's file and forgets it.
func (s *Store) dropSegment(sg *segment) error {
	if err := sg.r.Close(); err != nil {
		return err
	}
	if err := s.be.Remove(sg.name); err != nil {
		return err
	}
	delete(s.segs, sg.id)
	for i, id := range s.order {
		if id == sg.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}
