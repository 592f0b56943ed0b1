package core

import (
	"context"
	"sync"

	"elsm/internal/lsm"
)

// viewSnapshot is the Snapshot of every mode: a caller-held readView. All
// three modes capture the same engine-level unit — lsm.Snapshot: the
// applied timestamp frontier, the memtable pair, and the reference-counted
// run set of the current version — so a snapshot's reads are repeatable bit
// for bit across concurrent flushes, compactions and WAL rotations; on
// eLSM-P2 the view also carries the trusted digest forest, so every
// snapshot read is verified exactly like the live paths.
type viewSnapshot struct {
	b    *kvBase
	view *readView

	mu     sync.Mutex
	closed bool
}

// Snapshot implements KV: it pins the current state — on eLSM-P2 with its
// trusted digest forest — as one consistent read session.
func (b *kvBase) Snapshot() (Snapshot, error) {
	var (
		v   *readView
		err error
	)
	b.ecall(func() { v, err = b.step.acquire(true) })
	if err != nil {
		return nil, err
	}
	return &viewSnapshot{b: b, view: v}, nil
}

// Ts implements Snapshot.
func (s *viewSnapshot) Ts() uint64 { return s.view.ts() }

// GetAt implements Snapshot: the mode's GET against the pinned view (tsq
// clamped to the snapshot frontier).
func (s *viewSnapshot) GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	var res Result
	var err error
	s.b.ecall(func() { res, err = s.b.step.getAt(s.view, key, tsq) })
	return res, err
}

// IterAt implements Snapshot: the chunked stream over the pinned view. The
// iterator takes its own view reference, so closing the snapshot
// mid-iteration does not unpin the stream's runs.
func (s *viewSnapshot) IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &errIter{err: lsm.ErrClosed}
	}
	s.view.retain()
	s.mu.Unlock()
	return s.b.viewIter(ctx, s.view, start, end, tsq)
}

// Close implements Snapshot, releasing the snapshot's reference. Idempotent;
// open iterators keep the pins until they close.
func (s *viewSnapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.view.release()
	return nil
}
