// Package sstable implements the Sorted Strings Table file format used for
// all on-disk levels (L≥1) of the LSM store. SSTable files live in the
// untrusted world; in eLSM-P2 their records carry embedded Merkle proofs,
// and in eLSM-P1 their data blocks are sealed (encrypted + MACed) at file
// granularity.
//
// File layout:
//
//	[data block 0] … [data block n-1] [filter block] [index block] [footer]
//
// Data blocks hold whole records, framed as
//
//	kind u8 ‖ uvarint keyLen ‖ key ‖ ts u64 ‖ uvarint valLen ‖ value ‖
//	uvarint proofLen ‖ proof
//
// The index block maps each data block's last (key, ts) to its file extent;
// the filter block holds one Bloom filter per data block (§2: "a Bloom
// filter is built for each data block").
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"elsm/internal/bloom"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// Magic identifies SSTable files (last 8 footer bytes).
const Magic = 0xe15a_5a7a_b1e5_0001

// DefaultBlockSize is the target data-block payload size.
const DefaultBlockSize = 4096

// Format errors.
var (
	ErrBadTable = errors.New("sstable: malformed table")
	ErrOrder    = errors.New("sstable: records added out of order")
)

// BlockTransform seals data blocks on write and opens them on read
// (eLSM-P1's file-granularity protection). Implementations must be safe for
// concurrent use. The blockID binds a block to its position, preventing a
// malicious host from swapping sealed blocks around.
type BlockTransform interface {
	Seal(blockID uint64, plain []byte) []byte
	Open(blockID uint64, sealed []byte) ([]byte, error)
}

// BlockID derives the transform binding identifier for a block.
func BlockID(fileNum uint64, blockIdx int) uint64 {
	return fileNum<<20 | uint64(blockIdx)
}

// BlockSource fetches (unsealed) data-block bytes. The LSM layer provides
// implementations that route through the read buffer, the mmap view, or the
// enclave boundary with the appropriate cost accounting.
type BlockSource interface {
	ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error)
}

// ---------------------------------------------------------------------------
// Builder

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BlockSize is the target uncompressed block payload size
	// (DefaultBlockSize if zero).
	BlockSize int
	// BitsPerKey is the Bloom-filter budget (bloom.DefaultBitsPerKey if zero).
	BitsPerKey int
	// Transform optionally seals data blocks (eLSM-P1).
	Transform BlockTransform
	// FileNum is the table's file number, used for block binding.
	FileNum uint64
}

// Meta describes a finished table.
type Meta struct {
	FileNum    uint64
	Smallest   []byte // smallest user key
	SmallestTs uint64
	Largest    []byte // largest user key
	LargestTs  uint64
	NumEntries int
	NumBlocks  int
	Size       int64
}

// Builder writes an SSTable. Records must be added in record order
// (key asc, ts desc). Not safe for concurrent use.
type Builder struct {
	f    vfs.File
	opts BuilderOptions

	off        int64
	blockBuf   []byte
	blockKeys  [][]byte
	index      []indexEntry
	filters    [][]byte
	numEntries int
	haveLast   bool
	lastKey    []byte
	lastTs     uint64
	meta       Meta
}

type indexEntry struct {
	lastKey []byte
	lastTs  uint64
	off     int64
	length  int64
}

// NewBuilder starts building a table into f.
func NewBuilder(f vfs.File, opts BuilderOptions) *Builder {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.BitsPerKey <= 0 {
		opts.BitsPerKey = bloom.DefaultBitsPerKey
	}
	return &Builder{f: f, opts: opts, meta: Meta{FileNum: opts.FileNum}}
}

// appendRecord frames rec into buf.
func appendRecord(buf []byte, rec record.Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(buf, rec.Key...)
	buf = binary.BigEndian.AppendUint64(buf, rec.Ts)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Value)))
	buf = append(buf, rec.Value...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Proof)))
	return append(buf, rec.Proof...)
}

// Add appends a record. Records must arrive in strict record order.
func (b *Builder) Add(rec record.Record) error {
	if b.haveLast && record.Compare(b.lastKey, b.lastTs, rec.Key, rec.Ts) >= 0 {
		return fmt.Errorf("%w: %q@%d after %q@%d", ErrOrder, rec.Key, rec.Ts, b.lastKey, b.lastTs)
	}
	if !b.haveLast {
		b.meta.Smallest = append([]byte(nil), rec.Key...)
		b.meta.SmallestTs = rec.Ts
	}
	b.haveLast = true
	b.lastKey = append(b.lastKey[:0], rec.Key...)
	b.lastTs = rec.Ts

	b.blockBuf = appendRecord(b.blockBuf, rec)
	b.blockKeys = append(b.blockKeys, append([]byte(nil), rec.Key...))
	b.numEntries++
	if len(b.blockBuf) >= b.opts.BlockSize {
		return b.flushBlock()
	}
	return nil
}

func (b *Builder) flushBlock() error {
	if len(b.blockBuf) == 0 {
		return nil
	}
	payload := b.blockBuf
	if b.opts.Transform != nil {
		payload = b.opts.Transform.Seal(BlockID(b.opts.FileNum, len(b.index)), payload)
	}
	if _, err := b.f.Append(payload); err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	b.index = append(b.index, indexEntry{
		lastKey: append([]byte(nil), b.lastKey...),
		lastTs:  b.lastTs,
		off:     b.off,
		length:  int64(len(payload)),
	})
	b.filters = append(b.filters, bloom.Build(b.blockKeys, b.opts.BitsPerKey))
	b.off += int64(len(payload))
	b.blockBuf = b.blockBuf[:0]
	b.blockKeys = b.blockKeys[:0]
	return nil
}

// Finish flushes the final block, writes the filter block, index block and
// footer, and returns the table metadata.
func (b *Builder) Finish() (Meta, error) {
	if err := b.flushBlock(); err != nil {
		return Meta{}, err
	}
	if b.numEntries == 0 {
		return Meta{}, fmt.Errorf("%w: empty table", ErrBadTable)
	}
	// Filter block.
	var fb []byte
	fb = binary.BigEndian.AppendUint32(fb, uint32(len(b.filters)))
	for _, f := range b.filters {
		fb = binary.BigEndian.AppendUint32(fb, uint32(len(f)))
		fb = append(fb, f...)
	}
	filterOff := b.off
	if _, err := b.f.Append(fb); err != nil {
		return Meta{}, fmt.Errorf("sstable: write filters: %w", err)
	}
	b.off += int64(len(fb))

	// Index block.
	var ib []byte
	ib = binary.BigEndian.AppendUint32(ib, uint32(len(b.index)))
	for _, e := range b.index {
		ib = binary.AppendUvarint(ib, uint64(len(e.lastKey)))
		ib = append(ib, e.lastKey...)
		ib = binary.BigEndian.AppendUint64(ib, e.lastTs)
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.off))
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.length))
	}
	indexOff := b.off
	if _, err := b.f.Append(ib); err != nil {
		return Meta{}, fmt.Errorf("sstable: write index: %w", err)
	}
	b.off += int64(len(ib))

	// Footer: filterOff, filterLen, indexOff, indexLen, numEntries, magic.
	var ft []byte
	ft = binary.BigEndian.AppendUint64(ft, uint64(filterOff))
	ft = binary.BigEndian.AppendUint64(ft, uint64(len(fb)))
	ft = binary.BigEndian.AppendUint64(ft, uint64(indexOff))
	ft = binary.BigEndian.AppendUint64(ft, uint64(len(ib)))
	ft = binary.BigEndian.AppendUint64(ft, uint64(b.numEntries))
	ft = binary.BigEndian.AppendUint64(ft, Magic)
	if _, err := b.f.Append(ft); err != nil {
		return Meta{}, fmt.Errorf("sstable: write footer: %w", err)
	}
	b.off += int64(len(ft))

	b.meta.Largest = append([]byte(nil), b.lastKey...)
	b.meta.LargestTs = b.lastTs
	b.meta.NumEntries = b.numEntries
	b.meta.NumBlocks = len(b.index)
	b.meta.Size = b.off
	return b.meta, nil
}

// ---------------------------------------------------------------------------
// Reader

// Table reads an SSTable. Metadata (index + filters) is loaded once at Open
// — in eLSM these structures live inside the enclave ("file indices at
// levels L≥1 are placed inside the enclave", §4.2) — while data blocks are
// fetched on demand through a BlockSource.
type Table struct {
	fileNum    uint64
	index      []indexEntry
	filters    []bloom.Filter
	numEntries int
	source     BlockSource
}

// FileSource reads blocks straight from a file handle, applying an optional
// transform. It is the plain, cost-free source used by tests; the LSM layer
// provides cached and mmap sources.
type FileSource struct {
	F         vfs.File
	Transform BlockTransform
}

var _ BlockSource = (*FileSource)(nil)

// ReadBlock implements BlockSource.
func (s *FileSource) ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := s.F.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("sstable: read block %d: %w", blockIdx, err)
	}
	if s.Transform != nil {
		return s.Transform.Open(BlockID(fileNum, blockIdx), buf)
	}
	return buf, nil
}

// Open parses the table's footer, index and filter blocks from f and
// returns a Table that will fetch data blocks through source.
func Open(f vfs.File, fileNum uint64, source BlockSource) (*Table, error) {
	size := f.Size()
	const footerLen = 48
	if size < footerLen {
		return nil, fmt.Errorf("%w: too small (%d bytes)", ErrBadTable, size)
	}
	ft := make([]byte, footerLen)
	if _, err := f.ReadAt(ft, size-footerLen); err != nil {
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	if binary.BigEndian.Uint64(ft[40:48]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTable)
	}
	filterOff, filterLen, ok := extent(ft[0:16], size-footerLen)
	if !ok {
		return nil, fmt.Errorf("%w: filter block out of bounds", ErrBadTable)
	}
	indexOff, indexLen, ok := extent(ft[16:32], size-footerLen)
	if !ok {
		return nil, fmt.Errorf("%w: index block out of bounds", ErrBadTable)
	}
	numEntries := int(binary.BigEndian.Uint64(ft[32:40]))

	ib := make([]byte, indexLen)
	if _, err := f.ReadAt(ib, indexOff); err != nil {
		return nil, fmt.Errorf("sstable: read index: %w", err)
	}
	t := &Table{fileNum: fileNum, numEntries: numEntries, source: source}
	if len(ib) < 4 {
		return nil, fmt.Errorf("%w: short index", ErrBadTable)
	}
	n := int(binary.BigEndian.Uint32(ib[:4]))
	p := 4
	for i := 0; i < n; i++ {
		key, q, ok := lenPrefixed(ib, p)
		if !ok || len(ib)-q < 24 {
			return nil, fmt.Errorf("%w: corrupt index entry %d", ErrBadTable, i)
		}
		e := indexEntry{lastKey: append([]byte(nil), key...), lastTs: binary.BigEndian.Uint64(ib[q : q+8])}
		// Data blocks lie before the filter block.
		if e.off, e.length, ok = extent(ib[q+8:q+24], filterOff); !ok {
			return nil, fmt.Errorf("%w: index entry %d out of bounds", ErrBadTable, i)
		}
		p = q + 24
		t.index = append(t.index, e)
	}

	fb := make([]byte, filterLen)
	if _, err := f.ReadAt(fb, filterOff); err != nil {
		return nil, fmt.Errorf("sstable: read filters: %w", err)
	}
	if len(fb) < 4 {
		return nil, fmt.Errorf("%w: short filter block", ErrBadTable)
	}
	fn := int(binary.BigEndian.Uint32(fb[:4]))
	p = 4
	for i := 0; i < fn; i++ {
		if p+4 > len(fb) {
			return nil, fmt.Errorf("%w: corrupt filter %d", ErrBadTable, i)
		}
		flen := int(binary.BigEndian.Uint32(fb[p : p+4]))
		p += 4
		if p+flen > len(fb) {
			return nil, fmt.Errorf("%w: corrupt filter %d", ErrBadTable, i)
		}
		t.filters = append(t.filters, bloom.Filter(fb[p:p+flen]))
		p += flen
	}
	if len(t.index) == 0 {
		return nil, fmt.Errorf("%w: no data blocks", ErrBadTable)
	}
	if len(t.filters) != len(t.index) {
		return nil, fmt.Errorf("%w: %d filters for %d blocks", ErrBadTable, len(t.filters), len(t.index))
	}
	return t, nil
}

// extent decodes the big-endian offset and length in b[0:16] and reports
// whether they frame bytes inside [0, limit). Both are checked as uint64
// before conversion, so hostile values cannot wrap negative.
func extent(b []byte, limit int64) (off, length int64, ok bool) {
	o, l := binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
	if l > uint64(limit) || o > uint64(limit)-l {
		return 0, 0, false
	}
	return int64(o), int64(l), true
}

// NumEntries returns the number of records in the table.
func (t *Table) NumEntries() int { return t.numEntries }

// NumBlocks returns the number of data blocks.
func (t *Table) NumBlocks() int { return len(t.index) }

// FileNum returns the table's file number.
func (t *Table) FileNum() uint64 { return t.fileNum }

// MetadataBytes approximates the in-enclave footprint of the table's index
// and filters.
func (t *Table) MetadataBytes() int {
	total := 0
	for i := range t.index {
		total += len(t.index[i].lastKey) + 24
		total += len(t.filters[i])
	}
	return total
}

// seekBlock returns the index of the first block whose last entry is
// ≥ (key, ts), or len(index) if none.
func (t *Table) seekBlock(key []byte, ts uint64) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		e := t.index[mid]
		if record.Compare(e.lastKey, e.lastTs, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// frame is one record as framed in a data block. Its key, value and proof
// are borrowed from the block's bytes, which in the mmap and buffered read
// paths are untrusted memory the host can rewrite at any time. A frame
// therefore never leaves this package: callers get own's private copy.
type frame struct {
	kind              record.Kind
	ts                uint64
	key, value, proof []byte
}

// parseFrame parses the record framed at data[off:] in place. It returns
// the frame, borrowing from data, and the frame's length in bytes.
func parseFrame(data []byte, off int) (frame, int, error) {
	var f frame
	if off >= len(data) {
		return f, 0, fmt.Errorf("%w: truncated record", ErrBadTable)
	}
	f.kind = record.Kind(data[off])
	key, p, ok := lenPrefixed(data, off+1)
	if !ok || len(data)-p < 8 {
		return f, 0, fmt.Errorf("%w: bad key frame", ErrBadTable)
	}
	f.key = key
	f.ts = binary.BigEndian.Uint64(data[p : p+8])
	if f.value, p, ok = lenPrefixed(data, p+8); !ok {
		return f, 0, fmt.Errorf("%w: bad value frame", ErrBadTable)
	}
	if f.proof, p, ok = lenPrefixed(data, p); !ok {
		return f, 0, fmt.Errorf("%w: bad proof frame", ErrBadTable)
	}
	return f, p - off, nil
}

// lenPrefixed reads the uvarint length at data[p:] and returns the
// capacity-limited bytes it frames and the offset just past them. The length
// is checked as a uint64 before conversion, so a hostile value cannot wrap
// to a negative int and slip past the bounds check.
func lenPrefixed(data []byte, p int) ([]byte, int, bool) {
	n, w := binary.Uvarint(data[p:])
	if w <= 0 || n > uint64(len(data)-p-w) {
		return nil, 0, false
	}
	p += w
	end := p + int(n)
	return data[p:end:end], end, true
}

// own copies f into one private allocation. The record's key, value and
// proof are capacity-limited sub-slices of it, so appending to one cannot
// overwrite another.
func (f frame) own() record.Record {
	buf := make([]byte, len(f.key)+len(f.value)+len(f.proof))
	k := copy(buf, f.key)
	v := k + copy(buf[k:], f.value)
	copy(buf[v:], f.proof)
	return record.Record{Kind: f.kind, Ts: f.ts, Key: buf[:k:k], Value: buf[k:v:v], Proof: buf[v:]}
}

// seekFrame walks data's frames in place to the first one at or after
// (key, ts) in record order. It returns that frame and its offset, which is
// len(data) when every frame sorts before (key, ts), and the offset of the
// frame before it, or -1 if there is none.
func seekFrame(data, key []byte, ts uint64) (cur frame, off, prevOff int, err error) {
	prevOff = -1
	for off < len(data) {
		f, n, err := parseFrame(data, off)
		if err != nil {
			return frame{}, 0, 0, err
		}
		if record.Compare(f.key, f.ts, key, ts) >= 0 {
			return f, off, prevOff, nil
		}
		prevOff, off = off, off+n
	}
	return frame{}, off, prevOff, nil
}

// blockData fetches data block i through the table's source.
func (t *Table) blockData(i int) ([]byte, error) {
	e := t.index[i]
	return t.source.ReadBlock(t.fileNum, i, e.off, e.length)
}

// Get returns the newest record of key with Ts ≤ tsq, if the table holds
// one. The Bloom filter short-circuits definite misses; otherwise only the
// hit is copied out of the block.
func (t *Table) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	bi := t.seekBlock(key, tsq)
	if bi >= len(t.index) || !t.filters[bi].MayContain(key) {
		return record.Record{}, false, nil
	}
	data, err := t.blockData(bi)
	if err != nil {
		return record.Record{}, false, err
	}
	f, off, _, err := seekFrame(data, key, tsq)
	if err != nil || off == len(data) || !bytes.Equal(f.key, key) {
		return record.Record{}, false, err
	}
	return f.own(), true, nil
}

// SeekWithPrev locates the seek position of (key, ts) and returns the
// records immediately before and at that position (either may be nil at the
// table edges). The eLSM layer uses this to assemble non-membership
// witnesses: for an absent key, prev and cur bracket it (§5.5.1 "returns
// the two neighboring records").
func (t *Table) SeekWithPrev(key []byte, ts uint64) (prev, cur *record.Record, err error) {
	bi := t.seekBlock(key, ts)
	if bi >= len(t.index) {
		// Position is past the end: prev is the table's last record.
		last, err := t.Last()
		if err != nil {
			return nil, nil, err
		}
		return &last, nil, nil
	}
	data, err := t.blockData(bi)
	if err != nil {
		return nil, nil, err
	}
	f, off, prevOff, err := seekFrame(data, key, ts)
	if err != nil {
		return nil, nil, err
	}
	if off < len(data) {
		c := f.own()
		cur = &c
	}
	switch {
	case prevOff >= 0:
		pf, _, err := parseFrame(data, prevOff)
		if err != nil {
			return nil, nil, err
		}
		p := pf.own()
		prev = &p
	case bi > 0:
		p, err := t.lastOf(bi - 1)
		if err != nil {
			return nil, nil, err
		}
		prev = &p
	}
	return prev, cur, nil
}

// Last returns the table's last record.
func (t *Table) Last() (record.Record, error) {
	return t.lastOf(len(t.index) - 1)
}

// lastOf returns the last record of data block bi.
func (t *Table) lastOf(bi int) (record.Record, error) {
	data, err := t.blockData(bi)
	if err != nil {
		return record.Record{}, err
	}
	if len(data) == 0 {
		return record.Record{}, fmt.Errorf("%w: empty block %d", ErrBadTable, bi)
	}
	var last frame
	for off := 0; off < len(data); {
		f, n, err := parseFrame(data, off)
		if err != nil {
			return record.Record{}, err
		}
		last, off = f, off+n
	}
	return last.own(), nil
}

// Iter returns an iterator over the table.
func (t *Table) Iter() record.Iterator {
	return &tableIter{t: t}
}

// tableIter walks a table's frames in place, block by block. Record copies
// the current frame out once; skipping a frame copies nothing.
type tableIter struct {
	t     *Table
	block int    // index of the block data came from
	data  []byte // the current block's bytes, borrowed from the source
	off   int    // offset of the current frame; len(data) when not valid
	cur   frame  // the current frame, borrowing from data
	n     int    // framed length of cur
	rec   record.Record
	owned bool // rec holds a private copy of cur
	err   error
}

var _ record.Iterator = (*tableIter)(nil)

// position moves to the frame at off in block bi, whose bytes are data,
// or on to the first frame of the following blocks when off is past data's
// last frame.
func (it *tableIter) position(bi int, data []byte, off int) {
	for off >= len(data) {
		bi, off = bi+1, 0
		if bi >= len(it.t.index) {
			it.data, it.off = nil, 0
			return
		}
		var err error
		if data, err = it.t.blockData(bi); err != nil {
			it.fail(err)
			return
		}
	}
	f, n, err := parseFrame(data, off)
	if err != nil {
		it.fail(err)
		return
	}
	it.block, it.data, it.off, it.cur, it.n, it.owned = bi, data, off, f, n, false
}

func (it *tableIter) fail(err error) {
	it.err, it.data, it.off = err, nil, 0
}

func (it *tableIter) Valid() bool { return it.off < len(it.data) }

func (it *tableIter) Next() {
	if it.Valid() {
		it.position(it.block, it.data, it.off+it.n)
	}
}

func (it *tableIter) Record() record.Record {
	if !it.owned {
		it.rec, it.owned = it.cur.own(), true
	}
	return it.rec
}

func (it *tableIter) SeekGE(key []byte, ts uint64) {
	bi := it.t.seekBlock(key, ts)
	var data []byte
	off := 0
	if bi < len(it.t.index) {
		var err error
		if data, err = it.t.blockData(bi); err == nil {
			_, off, _, err = seekFrame(data, key, ts)
		}
		if err != nil {
			it.fail(err)
			return
		}
	}
	it.position(bi, data, off)
}

// Err returns the first block-read error encountered, if any.
func (it *tableIter) Err() error { return it.err }

func (it *tableIter) Close() error { return it.err }
