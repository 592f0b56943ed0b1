package core

import (
	"elsm/internal/lsm"
)

// BatchOp is one operation of an atomic grouped write: a set, or a
// tombstone when Delete is true.
type BatchOp = lsm.BatchOp

// NewResolvedFuture returns a future that is already accepted and resolved
// (for no-op commits and stores without a durability pipeline).
func NewResolvedFuture(ts uint64, err error) *CommitFuture {
	return lsm.NewResolvedFuture(ts, err)
}
