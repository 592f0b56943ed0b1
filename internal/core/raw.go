package core

import (
	"fmt"

	"elsm/internal/blockcache"
	"elsm/internal/crypto"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
)

// RawStore is the unauthenticated store behind two of the paper's
// configurations. Both read the engine snapshot as is, with no Merkle
// forest and no embedded proofs:
//
//   - eLSM-P1 (OpenP1), the strawman of §4: the entire store — including
//     the read buffer — lives inside the enclave, and out-of-enclave
//     SSTable files are protected at file granularity (every data block
//     encrypted and MACed, as the SGX SDK's protected FS would). Its cost
//     profile (enclave paging once the buffer outgrows the EPC, §4.2) is
//     the paper's motivation for eLSM-P2.
//   - the unsecured baseline (OpenUnsecured) of §6: a plain LSM store with
//     no enclave, no authentication and no encryption. It lower-bounds
//     every secured configuration.
type RawStore struct {
	kvBase
	cache *blockcache.Cache // the read buffer, if any
}

var _ KV = (*RawStore)(nil)

// blockSealer adapts crypto.BlockCipher to the engine's BlockTransform.
type blockSealer struct {
	bc *crypto.BlockCipher
}

var _ sstable.BlockTransform = (*blockSealer)(nil)

// Seal implements sstable.BlockTransform.
func (b *blockSealer) Seal(blockID uint64, plain []byte) []byte {
	return b.bc.EncryptBlock(blockID, plain)
}

// Open implements sstable.BlockTransform.
func (b *blockSealer) Open(blockID uint64, sealed []byte) ([]byte, error) {
	return b.bc.DecryptBlock(blockID, sealed)
}

// OpenP1 creates an eLSM-P1 store. A non-positive CacheSize means the
// 8 MB default: P1's whole point is the in-enclave read buffer.
func OpenP1(cfg Config) (*RawStore, error) {
	if cfg.MmapReads {
		return nil, fmt.Errorf("core: eLSM-P1 cannot mmap (files must be decrypted in enclave, §6.3)")
	}
	cfg = cfg.withDefaults()
	enclave := cfg.Enclave
	if enclave == nil {
		enclave = sgx.New(cfg.SGX)
	}
	mk, err := crypto.NewMasterKey()
	if err != nil {
		return nil, err
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = 8 << 20
	}
	// The P1 read buffer lives INSIDE the enclave: hits pay MEE cost and,
	// once the buffer exceeds the EPC, enclave paging (Figure 2).
	opts := cfg.engineOptions(enclave, blockcache.New(cacheSize, enclave))
	opts.Transform = &blockSealer{bc: crypto.NewBlock(mk)}
	return openRaw(cfg, opts, enclave)
}

// OpenUnsecured creates the unsecured baseline. The Config's SGX settings
// are ignored; the read buffer (if any) lives in ordinary memory.
func OpenUnsecured(cfg Config) (*RawStore, error) {
	cfg = cfg.withDefaults()
	var cache *blockcache.Cache
	if cfg.CacheSize > 0 {
		cache = blockcache.New(cfg.CacheSize, nil)
	}
	// The engine still needs an enclave to charge; a zero-cost unlimited
	// one charges nothing, and no store call crosses it.
	return openRaw(cfg, cfg.engineOptions(sgx.NewUnlimited(), cache), nil)
}

// openRaw opens the engine of a raw store whose calls cross enclave (nil:
// direct calls).
func openRaw(cfg Config, opts lsm.Options, enclave *sgx.Enclave) (*RawStore, error) {
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	s := &RawStore{cache: opts.Cache}
	s.kvBase = kvBase{engine: engine, enclave: enclave, step: s, iterChunkKeys: cfg.IterChunkKeys}
	return s, nil
}

// acquire implements readStep: the engine snapshot is the whole view.
func (s *RawStore) acquire(gauged bool) (*readView, error) {
	return newReadView(s.pin(gauged), nil, nil), nil
}

// getAt implements readStep with the engine's bloom-filtered point read.
func (s *RawStore) getAt(v *readView, key []byte, tsq uint64) (Result, error) {
	rec, ok, err := v.esnap.Get(key, tsq)
	if err != nil || !ok {
		return Result{}, err
	}
	return resultFrom(rec), nil
}

// scanChunk implements readStep with the engine's merged range read.
func (s *RawStore) scanChunk(v *readView, start, end []byte, tsq uint64, maxKeys int) ([]Result, []byte, bool, error) {
	recs, next, done, err := v.esnap.ScanChunk(start, end, tsq, maxKeys)
	if err != nil {
		return nil, nil, false, err
	}
	out := make([]Result, 0, len(recs))
	for _, rec := range recs {
		out = append(out, resultFrom(rec))
	}
	return out, next, done, nil
}

// Close implements KV.
func (s *RawStore) Close() error {
	if s.cache != nil {
		s.cache.Release()
	}
	return s.engine.Close()
}
