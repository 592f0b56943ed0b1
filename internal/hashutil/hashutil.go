// Package hashutil provides the domain-separated SHA-256 hashing primitives
// shared by the eLSM digest structures (record hashes, version hash chains,
// Merkle interior nodes, WAL digest chains).
//
// Every hash is domain-separated with a one-byte tag so that, e.g., a Merkle
// leaf can never be confused with an interior node or a WAL link — a standard
// hardening against cross-context collision attacks on Merkle constructions.
package hashutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Size is the digest size in bytes.
const Size = sha256.Size

// Hash is a fixed-size SHA-256 digest.
type Hash [Size]byte

// Zero is the all-zero hash, used as the "absent" sentinel (e.g., the inner
// chain hash of the oldest version of a key).
var Zero Hash

// IsZero reports whether h is the all-zero sentinel.
func (h Hash) IsZero() bool { return h == Zero }

// String returns the hex encoding (handy in tests and logs).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Domain-separation tags. Start at one so the zero byte is never a valid tag
// (style guide: start enums at one).
const (
	tagRecord byte = iota + 1
	tagChain
	tagLeaf
	tagNode
	tagWAL
)

// RecordDigest hashes one key-value record: H(tag ‖ len(k) ‖ k ‖ ts ‖ v).
// The explicit length prefix prevents key/value boundary ambiguity.
func RecordDigest(key []byte, ts uint64, value []byte) Hash {
	h := sha256.New()
	var buf [9]byte
	buf[0] = tagRecord
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(key)))
	h.Write(buf[:5])
	h.Write(key)
	binary.BigEndian.PutUint64(buf[1:9], ts)
	h.Write(buf[1:9])
	h.Write(value)
	var out Hash
	h.Sum(out[:0])
	return out
}

// ChainLink extends a same-key version hash chain by one (newer) record:
// H(tag ‖ ts ‖ recDigest ‖ inner). The paper builds the chain with the
// oldest record innermost, so presenting any stale version forces the prover
// to reveal the headers (ts, digest) of every newer version — which is how
// the enclave detects freshness violations (§5.3.1 Case 1).
func ChainLink(ts uint64, recDigest Hash, inner Hash) Hash {
	h := sha256.New()
	var buf [9]byte
	buf[0] = tagChain
	binary.BigEndian.PutUint64(buf[1:9], ts)
	h.Write(buf[:9])
	h.Write(recDigest[:])
	h.Write(inner[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// LeafHash wraps a completed version chain (or single-record digest) as a
// Merkle leaf, binding the user key so non-membership proofs can compare
// keys: H(tag ‖ len(k) ‖ k ‖ chainHead).
func LeafHash(key []byte, chainHead Hash) Hash {
	h := sha256.New()
	var buf [5]byte
	buf[0] = tagLeaf
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(key)))
	h.Write(buf[:5])
	h.Write(key)
	h.Write(chainHead[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// NodeHash combines two Merkle children: H(tag ‖ left ‖ right).
func NodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{tagNode})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// WALLink extends the write-ahead-log digest chain:
// dig' = H(tag ‖ dig ‖ kind ‖ len(k) ‖ k ‖ ts ‖ v) (paper §5.3 step w1).
func WALLink(dig Hash, kind byte, key []byte, ts uint64, value []byte) Hash {
	h := sha256.New()
	h.Write([]byte{tagWAL, kind})
	h.Write(dig[:])
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[:4], uint32(len(key)))
	h.Write(buf[:4])
	h.Write(key)
	binary.BigEndian.PutUint64(buf[:8], ts)
	h.Write(buf[:8])
	h.Write(value)
	var out Hash
	h.Sum(out[:0])
	return out
}

// Of hashes arbitrary bytes with no tag. Prefer the tagged helpers; this is
// for non-protocol uses (test fixtures, content addressing).
func Of(data []byte) Hash { return sha256.Sum256(data) }
