// Package repl is the replication transport of the store: leader-side hubs
// that publish checkpoints and authenticated tail streams, and
// follower-side tailers that verify and apply them.
//
// The trust model adds nothing to §5.6: every message a follower acts on —
// the checkpoint header and every shipped commit group — carries an
// enclave attestation report (the simulator's stand-in for SGX local
// attestation over a channel established by remote attestation), plus the
// WAL hash chain the records must reproduce. The untrusted pieces (the
// transport, both hosts' file systems, this package's own buffering) can
// drop, reorder, replay or rewrite bytes, and the follower detects it:
// reports bind content, the chain binds order, timestamp contiguity with
// the follower's own applied frontier binds position, and the attested
// (shard, shards) pair in every header and frame binds the stream to one
// partition of one topology (a transport cannot swap whole shard streams).
// On any verification failure the follower fails stop — it never serves a
// read past unverified state.
package repl

import (
	"errors"
	"io"
)

// Replication errors.
var (
	// ErrBehind reports a tail request for a frontier the leader's ring
	// buffer no longer retains; the follower must re-bootstrap from a
	// fresh checkpoint.
	ErrBehind = errors.New("repl: follower frontier behind retained log, re-bootstrap required")
	// ErrLeaderClosed reports a tail stream ended because the leader hub
	// shut down.
	ErrLeaderClosed = errors.New("repl: leader closed")
	// ErrShipGap reports a shipped frame that does not extend the
	// follower's applied frontier (dropped, replayed or reordered group).
	ErrShipGap = errors.New("repl: shipped group does not extend applied frontier")
	// ErrShardMismatch reports a shipped frame whose attested shard
	// identity is not the one the follower is tailing — a transport
	// splicing shard streams, or mismatched partition counts.
	ErrShardMismatch = errors.New("repl: shipped group bound to a different shard")
	// ErrFenced reports a shipped frame attested under an OLDER replication
	// epoch than the follower's sealed one: the sender is a zombie leader
	// demoted by a promotion this follower already adopted. The tailer
	// fails stop — applying the frame would split the verified history.
	ErrFenced = errors.New("repl: frame from a fenced (stale) replication epoch")
)

// Source is where a follower gets its data: a checkpoint stream to
// bootstrap a shard and a tail stream of committed groups from a given
// applied frontier. Implementations: LocalSource (in-process leader) and
// NetSource (an elsm-server leader over the wire protocol).
type Source interface {
	// Checkpoint streams shard's current checkpoint; the reader sees the
	// whole stream followed by EOF.
	Checkpoint(shard int) (io.ReadCloser, error)
	// Tail streams committed group frames for shard starting just past
	// applied frontier fromTs. The stream blocks at the frontier and
	// delivers new groups as they commit.
	Tail(shard int, fromTs uint64) (io.ReadCloser, error)
}
