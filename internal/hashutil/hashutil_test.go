package hashutil

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDomainSeparation(t *testing.T) {
	// The same raw bytes under different constructions must never collide.
	key := []byte("k")
	var h Hash
	rec := RecordDigest(key, 1, []byte("v"))
	leaf := LeafHash(key, rec)
	chain := ChainLink(1, rec, Zero)
	node := NodeHash(rec, rec)
	walLink := WALLink(Zero, 1, key, 1, []byte("v"))
	all := []Hash{rec, leaf, chain, node, walLink}
	for i := range all {
		if all[i] == h {
			t.Fatalf("hash %d is zero", i)
		}
		for j := i + 1; j < len(all); j++ {
			if all[i] == all[j] {
				t.Fatalf("constructions %d and %d collide", i, j)
			}
		}
	}
}

func TestRecordDigestBoundary(t *testing.T) {
	// key/value boundary must be unambiguous: ("ab","c") != ("a","bc").
	if RecordDigest([]byte("ab"), 1, []byte("c")) == RecordDigest([]byte("a"), 1, []byte("bc")) {
		t.Fatal("key/value boundary ambiguity")
	}
}

func TestRecordDigestTsSensitivity(t *testing.T) {
	a := RecordDigest([]byte("k"), 1, []byte("v"))
	b := RecordDigest([]byte("k"), 2, []byte("v"))
	if a == b {
		t.Fatal("timestamp not bound into record digest")
	}
}

func TestQuickRecordDigestInjective(t *testing.T) {
	f := func(k1, v1, k2, v2 []byte, ts1, ts2 uint64) bool {
		if bytes.Equal(k1, k2) && ts1 == ts2 && bytes.Equal(v1, v2) {
			return true
		}
		return RecordDigest(k1, ts1, v1) != RecordDigest(k2, ts2, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChainLinkOrderMatters(t *testing.T) {
	d1 := Of([]byte("r1"))
	d2 := Of([]byte("r2"))
	a := ChainLink(2, d2, ChainLink(1, d1, Zero))
	b := ChainLink(1, d1, ChainLink(2, d2, Zero))
	if a == b {
		t.Fatal("chain is order-insensitive")
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if Of([]byte("x")).IsZero() {
		t.Fatal("nonzero hash reported zero")
	}
}

func TestStringHex(t *testing.T) {
	h := Of([]byte("x"))
	s := h.String()
	if len(s) != 64 {
		t.Fatalf("hex length %d, want 64", len(s))
	}
}
