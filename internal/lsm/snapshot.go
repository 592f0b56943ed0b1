package lsm

import (
	"bytes"
	"sync/atomic"

	"elsm/internal/memtable"
	"elsm/internal/record"
)

// Snapshot is a pinned, immutable view of the store at one applied
// timestamp: the run set of the version current at acquisition (each run
// reference-counted so a concurrent compaction cannot delete its files),
// plus the memtable pair (active and frozen) live at that moment. Reads
// through the snapshot are clamped to its timestamp, so records committed
// later — which can only carry higher timestamps — never surface, records
// flushed later remain readable from the captured memtables, and the view
// is repeatable bit for bit no matter how much flushing, compaction or WAL
// rotation happens underneath. It is the engine's only read surface.
//
// A Snapshot pins disk space (replaced runs survive until release) and must
// be Released exactly once; Release is idempotent. Runs are addressed by
// INDEX into Runs() — the snapshot's read order — not by run ID, keeping
// the hot acquisition path (one per point read) map-free.
type Snapshot struct {
	s        *Store
	ts       uint64
	mem      *memtable.Table
	frozen   *memtable.Table // nil if no flush was in flight at acquisition
	runs     []snapRun       // read order (newest data first)
	gauged   bool            // counted in Stats.SnapshotsOpen (sessions, not point reads)
	released atomic.Bool
}

// snapRun is one pinned run and its place in the captured version.
type snapRun struct {
	r            *run
	level, index int
}

// AcquireSnapshot pins the current applied state as a read SESSION,
// counted in Stats.SnapshotsOpen. One engine-lock acquisition captures the
// timestamp frontier, the memtable pointers and the run set with their
// pins, so the snapshot can never straddle a version install.
func (s *Store) AcquireSnapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.acquireSnapshotLocked(true)
}

// AcquireEphemeralSnapshot is AcquireSnapshot for a one-shot read: same
// pins and consistency, but not counted as an open session (a point GET
// should not flicker the SnapshotsOpen gauge).
func (s *Store) AcquireEphemeralSnapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.acquireSnapshotLocked(false)
}

// acquireSnapshotLocked pins the current applied state. Caller holds s.mu
// (read or write): every pinned run is in s.levels, so its version
// reference keeps it alive while the pin is taken. The run slice is sized
// once, so acquisition costs two allocations whatever the level count.
func (s *Store) acquireSnapshotLocked(gauged bool) *Snapshot {
	n := 0
	for lvl := 1; lvl < len(s.levels); lvl++ {
		n += len(s.levels[lvl])
	}
	snap := &Snapshot{
		s:      s,
		ts:     s.appliedTs.Load(),
		mem:    s.mem,
		frozen: s.frozen,
		runs:   make([]snapRun, 0, n),
		gauged: gauged,
	}
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for idx, r := range s.levels[lvl] {
			s.retainRunLocked(r)
			snap.runs = append(snap.runs, snapRun{r: r, level: lvl, index: idx})
		}
	}
	if gauged {
		s.snapshotsOpen.Add(1)
	}
	return snap
}

// Ts returns the snapshot's timestamp: the last commit visible in it.
func (sn *Snapshot) Ts() uint64 { return sn.ts }

// Runs lists the snapshot's pinned runs in read order (newest data first).
// It builds a fresh slice; callers that need the list more than once keep
// it.
func (sn *Snapshot) Runs() []RunRef {
	refs := make([]RunRef, len(sn.runs))
	for i, sr := range sn.runs {
		refs[i] = RunRef{ID: sr.r.id, Level: sr.level, Index: sr.index}
	}
	return refs
}

// Release drops the snapshot's run pins, allowing files of runs replaced
// since acquisition to be deleted. Idempotent.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	for _, sr := range sn.runs {
		sn.s.releaseRun(sr.r)
	}
	if sn.gauged {
		sn.s.snapshotsOpen.Add(-1)
	}
}

// clamp bounds a query timestamp to the snapshot's frontier.
func (sn *Snapshot) clamp(tsq uint64) uint64 {
	if tsq > sn.ts {
		return sn.ts
	}
	return tsq
}

// pinned returns the i-th pinned run (index into Runs()).
func (sn *Snapshot) pinned(i int) (*run, error) {
	if i < 0 || i >= len(sn.runs) {
		return nil, ErrUnknownRun
	}
	return sn.runs[i].r, nil
}

// MemGet reads the snapshot's (trusted, in-enclave) memtables: the captured
// active table first, then the captured frozen one. Records committed after
// acquisition live in the same skiplist but carry timestamps beyond the
// clamp, so they never match.
func (sn *Snapshot) MemGet(key []byte, tsq uint64) (record.Record, bool) {
	tsq = sn.clamp(tsq)
	if rec, ok := sn.mem.Get(key, tsq); ok {
		return rec, true
	}
	if sn.frozen != nil {
		return sn.frozen.Get(key, tsq)
	}
	return record.Record{}, false
}

// MemScan returns the newest version ≤ tsq of each key in [start, end]
// from the snapshot's memtables, tombstones included, stopping after
// maxKeys keys (0 = unlimited) so a chunked reader never pulls a whole
// memtable into one chunk.
func (sn *Snapshot) MemScan(start, end []byte, tsq uint64, maxKeys int) []record.Record {
	tsq = sn.clamp(tsq)
	m := newMergeIter(sn.memSources(start))
	defer m.Close()
	var out []record.Record
	var lastKey []byte
	emitted := false
	for m.Valid() {
		rec, _ := m.Record()
		if bytes.Compare(rec.Key, end) > 0 {
			break
		}
		if lastKey == nil || !bytes.Equal(rec.Key, lastKey) {
			if maxKeys > 0 && len(out) >= maxKeys {
				break
			}
			lastKey = append(lastKey[:0], rec.Key...)
			emitted = false
		}
		if !emitted && rec.Ts <= tsq {
			out = append(out, rec)
			emitted = true
		}
		m.Next()
	}
	return out
}

// memSources returns the snapshot's memtable iterators positioned at start.
func (sn *Snapshot) memSources(start []byte) []mergeSource {
	sources := []mergeSource{{runID: MemtableRunID, iter: sn.mem.Iter()}}
	if sn.frozen != nil {
		sources = append(sources, mergeSource{runID: MemtableRunID, iter: sn.frozen.Iter()})
	}
	for _, src := range sources {
		src.iter.SeekGE(start, record.MaxTs)
	}
	return sources
}

// LookupRun performs the untrusted side of a one-level GET (§5.3) against
// the i-th pinned run. No engine lock is needed: the run is immutable and
// its files outlive the snapshot.
func (sn *Snapshot) LookupRun(i int, key []byte, tsq uint64) (RunLookup, error) {
	r, err := sn.pinned(i)
	if err != nil {
		return RunLookup{}, err
	}
	return lookupRun(r, key, sn.clamp(tsq))
}

// ScanRunChunk performs the untrusted side of a one-level SCAN (§5.4) over
// user keys start ≤ k ≤ end against the i-th pinned run, bounded to at
// most maxKeys distinct keys (0 = unlimited). Version chains are never
// split: the limit applies at key boundaries, so every returned key carries
// all its in-run versions and the enclave can rebuild whole Merkle leaves
// from the chunk.
func (sn *Snapshot) ScanRunChunk(i int, start, end []byte, maxKeys int) (RunScan, error) {
	r, err := sn.pinned(i)
	if err != nil {
		return RunScan{}, err
	}
	return scanRunChunk(r, start, end, maxKeys)
}

// Get returns the newest record of key with Ts ≤ tsq in the snapshot — the
// raw (unverified) read of the eLSM-P1 and unsecured stores: the memtables,
// then each pinned run through its bloom filter. Tombstones are returned
// as-is; the boolean reports whether any version was found.
func (sn *Snapshot) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	tsq = sn.clamp(tsq)
	if rec, ok := sn.MemGet(key, tsq); ok {
		return rec, true, nil
	}
	for _, sr := range sn.runs {
		rec, ok, err := runGet(sr.r, key, tsq)
		if err != nil {
			return record.Record{}, false, err
		}
		if ok {
			return rec, true, nil
		}
	}
	return record.Record{}, false, nil
}

// ScanChunk is the raw (unverified) merged range read over the pinned
// sources: the newest version ≤ tsq per key in [start, end], tombstones
// resolved, bounded to maxKeys distinct keys (0 = unlimited). It returns
// the records, the cursor to resume from (the first unprocessed key) and
// whether the range was exhausted. Keys whose newest version ≤ tsq is a
// tombstone count toward the limit but produce no record, so a chunk may
// be smaller than maxKeys — or empty — without being the last.
func (sn *Snapshot) ScanChunk(start, end []byte, tsq uint64, maxKeys int) (out []record.Record, next []byte, done bool, err error) {
	tsq = sn.clamp(tsq)
	sources := sn.memSources(start)
	for _, sr := range sn.runs {
		if len(sr.r.tables) > 0 {
			it := newRunIter(sr.r)
			it.SeekGE(start, record.MaxTs)
			sources = append(sources, mergeSource{runID: sr.r.id, iter: it})
		}
	}
	m := newMergeIter(sources)
	defer m.Close()

	var lastKey []byte
	keys := 0
	resolved := false
	done = true
	for m.Valid() {
		rec, _ := m.Record()
		if bytes.Compare(rec.Key, end) > 0 {
			break
		}
		if lastKey == nil || !bytes.Equal(rec.Key, lastKey) {
			if maxKeys > 0 && keys >= maxKeys {
				next = append([]byte(nil), rec.Key...)
				done = false
				break
			}
			keys++
			lastKey = append(lastKey[:0], rec.Key...)
			resolved = false
		}
		if !resolved && rec.Ts <= tsq {
			resolved = true
			if rec.Kind == record.KindSet {
				out = append(out, rec)
			}
		}
		m.Next()
	}
	return out, next, done, nil
}
