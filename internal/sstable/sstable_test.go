package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/crypto"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

func buildTable(t *testing.T, recs []record.Record, tr BlockTransform) (*Table, vfs.File, Meta) {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, BuilderOptions{BlockSize: 256, Transform: tr, FileNum: 7})
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(f, 7, &FileSource{F: f, Transform: tr})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, f, meta
}

func seqRecords(n, versions int) []record.Record {
	var out []record.Record
	ts := uint64(n*versions + 1)
	for i := 0; i < n; i++ {
		for v := 0; v < versions; v++ {
			ts--
			out = append(out, record.Record{
				Key:   []byte(fmt.Sprintf("key%05d", i)),
				Ts:    ts,
				Kind:  record.KindSet,
				Value: []byte(fmt.Sprintf("val-%d-%d", i, v)),
				Proof: []byte{0xaa, 0xbb},
			})
		}
	}
	return out
}

func TestBuildOpenRoundTrip(t *testing.T) {
	recs := seqRecords(500, 1)
	tbl, _, meta := buildTable(t, recs, nil)
	if tbl.NumEntries() != 500 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
	if meta.NumEntries != 500 || string(meta.Smallest) != "key00000" || string(meta.Largest) != "key00499" {
		t.Fatalf("meta = %+v", meta)
	}
	if tbl.NumBlocks() < 2 {
		t.Fatalf("expected multiple blocks, got %d", tbl.NumBlocks())
	}
	for i, want := range recs {
		got, ok, err := tbl.Get(want.Key, record.MaxTs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got.Value, want.Value) || !bytes.Equal(got.Proof, want.Proof) {
			t.Fatalf("record %d: got %+v ok=%v", i, got, ok)
		}
	}
}

func TestGetAbsentKeys(t *testing.T) {
	recs := seqRecords(100, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	for _, k := range []string{"key00000x", "a", "zzz", "key-1"} {
		if _, ok, err := tbl.Get([]byte(k), record.MaxTs); err != nil || ok {
			t.Fatalf("absent key %q: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestGetVersions(t *testing.T) {
	recs := seqRecords(50, 4)
	tbl, _, _ := buildTable(t, recs, nil)
	// Key 10's versions: the 4 records at indices 40..43, timestamps
	// descending from the sequence.
	key := []byte("key00010")
	newest, ok, err := tbl.Get(key, record.MaxTs)
	if err != nil || !ok {
		t.Fatalf("get newest: %v %v", ok, err)
	}
	// Historical query below newest ts hits an older version.
	older, ok, err := tbl.Get(key, newest.Ts-1)
	if err != nil || !ok {
		t.Fatalf("get older: %v %v", ok, err)
	}
	if older.Ts >= newest.Ts {
		t.Fatalf("older.Ts %d >= newest.Ts %d", older.Ts, newest.Ts)
	}
	// Below the oldest version: no result.
	oldest := older
	for {
		r, ok, err := tbl.Get(key, oldest.Ts-1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		oldest = r
	}
}

func TestIteratorFullScan(t *testing.T) {
	recs := seqRecords(300, 2)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	it.SeekGE(nil, record.MaxTs)
	n := 0
	var prev record.Record
	for ; it.Valid(); it.Next() {
		rec := it.Record()
		if n > 0 && record.CompareRecords(prev, rec) >= 0 {
			t.Fatalf("order violation at %d", n)
		}
		prev = rec
		n++
	}
	if n != 600 {
		t.Fatalf("scanned %d of 600", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorSeek(t *testing.T) {
	recs := seqRecords(200, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	it.SeekGE([]byte("key00150"), record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "key00150" {
		t.Fatalf("seek exact landed at %q", it.Record().Key)
	}
	it.SeekGE([]byte("key00150x"), record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "key00151" {
		t.Fatalf("seek between landed at %q", it.Record().Key)
	}
	it.SeekGE([]byte("zzz"), record.MaxTs)
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestSeekWithPrev(t *testing.T) {
	recs := seqRecords(100, 1)
	tbl, _, _ := buildTable(t, recs, nil)

	// Between two keys.
	prev, cur, err := tbl.SeekWithPrev([]byte("key00050x"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if prev == nil || string(prev.Key) != "key00050" {
		t.Fatalf("prev = %v", prev)
	}
	if cur == nil || string(cur.Key) != "key00051" {
		t.Fatalf("cur = %v", cur)
	}

	// Before the first key.
	prev, cur, err = tbl.SeekWithPrev([]byte("a"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil {
		t.Fatalf("prev before first = %v", prev)
	}
	if cur == nil || string(cur.Key) != "key00000" {
		t.Fatalf("cur = %v", cur)
	}

	// Past the last key.
	prev, cur, err = tbl.SeekWithPrev([]byte("zzz"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if cur != nil {
		t.Fatalf("cur past end = %v", cur)
	}
	if prev == nil || string(prev.Key) != "key00099" {
		t.Fatalf("prev = %v", prev)
	}
}

func TestFirstLast(t *testing.T) {
	recs := seqRecords(77, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	it.SeekGE(nil, record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "key00000" {
		t.Fatalf("first record missing or wrong")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	last, err := tbl.Last()
	if err != nil || string(last.Key) != "key00076" {
		t.Fatalf("last = %q err=%v", last.Key, err)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 1, Kind: record.KindSet}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(record.Record{Key: []byte("a"), Ts: 1, Kind: record.KindSet}); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 1, Kind: record.KindSet}); err == nil {
		t.Fatal("duplicate (key, ts) accepted")
	}
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 2, Kind: record.KindSet}); err == nil {
		t.Fatal("ascending ts within key accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	if _, err := b.Finish(); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	recs := seqRecords(10, 1)
	_, f, _ := buildTable(t, recs, nil)
	// Destroy the magic.
	f.WriteAt([]byte{0, 0, 0, 0, 0, 0, 0, 0}, f.Size()-8)
	if _, err := Open(f, 7, &FileSource{F: f}); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestEncryptedBlocks(t *testing.T) {
	mk, err := crypto.NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	tr := &testSealer{bc: crypto.NewBlock(mk)}
	recs := seqRecords(200, 1)
	tbl, f, _ := buildTable(t, recs, tr)
	for i := 0; i < len(recs); i += 7 {
		want := recs[i]
		got, ok, err := tbl.Get(want.Key, record.MaxTs)
		if err != nil || !ok || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("encrypted get %q: %v %v", want.Key, ok, err)
		}
	}
	// Ciphertext must not contain plaintext values.
	raw := f.Bytes()
	if bytes.Contains(raw, []byte("val-0-0")) {
		t.Fatal("plaintext leaked into encrypted table")
	}
	// Tampering with a data block must surface on read.
	raw[10] ^= 0xFF
	if _, _, err := tbl.Get(recs[0].Key, record.MaxTs); err == nil {
		t.Fatal("tampered encrypted block read succeeded")
	}
}

type testSealer struct{ bc *crypto.BlockCipher }

func (s *testSealer) Seal(id uint64, p []byte) []byte { return s.bc.EncryptBlock(id, p) }
func (s *testSealer) Open(id uint64, c []byte) ([]byte, error) {
	return s.bc.DecryptBlock(id, c)
}

func TestParseFrameRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{},                                   // nothing to parse
		{0xff, 0x01, 0x02},                   // key runs past the block
		{0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 7}, // no value length
		{0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 7, 0x00},       // no proof length
		{0x01, 0x00, 0, 0, 0, 0, 0, 0, 0, 7, 0x00, 0x05}, // proof runs past the block
	} {
		if _, _, err := parseFrame(data, 0); !errors.Is(err, ErrBadTable) {
			t.Fatalf("parseFrame(%x) err = %v, want ErrBadTable", data, err)
		}
	}
}

// hostileLen is a uvarint length that wraps negative when converted to int
// before being bounds-checked.
var hostileLen = binary.AppendUvarint(nil, 1<<63+5)

// TestHostileLengthsRejected crafts lengths that overflow int in a data
// block, an index entry and the footer: each must surface as ErrBadTable,
// never as a panic.
func TestHostileLengthsRejected(t *testing.T) {
	recs := seqRecords(100, 1)
	footerField := func(f vfs.File, i int) int64 {
		b := make([]byte, 8)
		if _, err := f.ReadAt(b, f.Size()-48+int64(8*i)); err != nil {
			t.Fatal(err)
		}
		return int64(binary.BigEndian.Uint64(b))
	}

	t.Run("block key length", func(t *testing.T) {
		tbl, f, _ := buildTable(t, recs, nil)
		f.WriteAt(hostileLen, 1) // block 0, record 0: kind byte, then key length
		if _, _, err := tbl.Get(recs[0].Key, record.MaxTs); !errors.Is(err, ErrBadTable) {
			t.Fatalf("Get err = %v, want ErrBadTable", err)
		}
		if _, _, err := tbl.SeekWithPrev(recs[0].Key, record.MaxTs); !errors.Is(err, ErrBadTable) {
			t.Fatalf("SeekWithPrev err = %v, want ErrBadTable", err)
		}
		it := tbl.Iter()
		it.SeekGE(nil, record.MaxTs)
		if it.Valid() || !errors.Is(it.Close(), ErrBadTable) {
			t.Fatalf("iterator valid=%v err=%v, want ErrBadTable", it.Valid(), it.Close())
		}
	})
	t.Run("index key length", func(t *testing.T) {
		_, f, _ := buildTable(t, recs, nil)
		f.WriteAt(hostileLen, footerField(f, 2)+4) // first entry, after the count
		if _, err := Open(f, 7, &FileSource{F: f}); !errors.Is(err, ErrBadTable) {
			t.Fatalf("Open err = %v, want ErrBadTable", err)
		}
	})
	t.Run("index entry extent", func(t *testing.T) {
		_, f, _ := buildTable(t, recs, nil)
		// The first entry's block offset sits after the count, the key
		// length, the key and the timestamp.
		off := footerField(f, 2) + 4 + 1 + int64(len(recs[0].Key)) + 8
		f.WriteAt(binary.BigEndian.AppendUint64(nil, 1<<63), off)
		if _, err := Open(f, 7, &FileSource{F: f}); !errors.Is(err, ErrBadTable) {
			t.Fatalf("Open err = %v, want ErrBadTable", err)
		}
	})
	for i, name := range []string{"filter offset", "filter length", "index offset", "index length"} {
		t.Run("footer "+name, func(t *testing.T) {
			_, f, _ := buildTable(t, recs, nil)
			f.WriteAt(binary.BigEndian.AppendUint64(nil, 1<<63), f.Size()-48+int64(8*i))
			if _, err := Open(f, 7, &FileSource{F: f}); !errors.Is(err, ErrBadTable) {
				t.Fatalf("Open err = %v, want ErrBadTable", err)
			}
		})
	}
}

// bufSource serves blocks as sub-slices of one buffer the test owns,
// copying nothing, the way the mmap read path serves untrusted memory.
type bufSource struct{ buf []byte }

func (s *bufSource) ReadBlock(_ uint64, _ int, off, length int64) ([]byte, error) {
	return s.buf[off : off+length], nil
}

// buildBufTable builds recs into a table read through a bufSource.
func buildBufTable(t *testing.T, recs []record.Record) (*Table, *bufSource) {
	t.Helper()
	_, f, _ := buildTable(t, recs, nil)
	src := &bufSource{buf: append([]byte(nil), f.Bytes()...)}
	tbl, err := Open(f, 7, src)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, src
}

// blockFirsts returns, for each data block after the first, the position
// in recs of the block's first record.
func blockFirsts(tbl *Table, recs []record.Record) []int {
	var out []int
	j := 0
	for _, e := range tbl.index[:len(tbl.index)-1] {
		for record.Compare(recs[j].Key, recs[j].Ts, e.lastKey, e.lastTs) != 0 {
			j++
		}
		out = append(out, j+1)
	}
	return out
}

// splitKey returns the position in recs of the first record of a block
// whose key also ends the previous block: a multi-version key split across
// two blocks.
func splitKey(t *testing.T, tbl *Table, recs []record.Record) int {
	t.Helper()
	for _, j := range blockFirsts(tbl, recs) {
		if bytes.Equal(recs[j-1].Key, recs[j].Key) {
			return j
		}
	}
	t.Fatal("no key's versions straddle a block boundary")
	return 0
}

// TestRecordsDoNotAliasBlock checks the private-copy contract: records
// returned by Get, SeekWithPrev, Last and the iterator survive the block
// bytes being overwritten, as a hostile host may do to mmap'd memory.
func TestRecordsDoNotAliasBlock(t *testing.T) {
	recs := seqRecords(60, 4)
	tbl, src := buildBufTable(t, recs)
	firsts := blockFirsts(tbl, recs)
	split := splitKey(t, tbl, recs)

	type check struct {
		name string
		got  *record.Record
		want record.Record
	}
	var checks []check
	add := func(name string, got *record.Record, want record.Record) {
		if got == nil {
			t.Fatalf("%s: missing record", name)
		}
		checks = append(checks, check{name, got, want})
	}

	for _, j := range []int{0, 37, firsts[0], split, len(recs) - 1} {
		got, ok, err := tbl.Get(recs[j].Key, recs[j].Ts)
		if err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", j, ok, err)
		}
		add(fmt.Sprintf("Get %d", j), &got, recs[j])
	}
	// Block boundaries: prev in the previous block, a split key's older
	// version, and the position past the last block.
	for _, j := range []int{37, firsts[0], firsts[len(firsts)-1], split} {
		prev, cur, err := tbl.SeekWithPrev(recs[j].Key, recs[j].Ts)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("SeekWithPrev %d prev", j), prev, recs[j-1])
		add(fmt.Sprintf("SeekWithPrev %d cur", j), cur, recs[j])
	}
	prev, cur, err := tbl.SeekWithPrev([]byte("zzz"), record.MaxTs)
	if err != nil || cur != nil {
		t.Fatalf("SeekWithPrev past end: cur=%v err=%v", cur, err)
	}
	add("SeekWithPrev past end", prev, recs[len(recs)-1])
	last, err := tbl.Last()
	if err != nil {
		t.Fatal(err)
	}
	add("Last", &last, recs[len(recs)-1])

	it := tbl.Iter()
	it.SeekGE(recs[split-1].Key, recs[split-1].Ts)
	for j := split - 1; j <= split+1; j++ {
		if !it.Valid() {
			t.Fatalf("iterator ended at %d", j)
		}
		rec := it.Record()
		add(fmt.Sprintf("iterator %d", j), &rec, recs[j])
		it.Next()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}

	for i := range src.buf {
		src.buf[i] = 0x5a
	}
	for _, c := range checks {
		g, w := *c.got, c.want
		if !bytes.Equal(g.Key, w.Key) || g.Ts != w.Ts || g.Kind != w.Kind ||
			!bytes.Equal(g.Value, w.Value) || !bytes.Equal(g.Proof, w.Proof) {
			t.Fatalf("%s changed with the block: got %q@%d %q, want %q@%d %q",
				c.name, g.Key, g.Ts, g.Value, w.Key, w.Ts, w.Value)
		}
	}
	// One allocation backs each record, but its parts must not overlap.
	g := *checks[0].got
	_ = append(g.Key, 'x')
	_ = append(g.Value, 'x')
	if !bytes.Equal(g.Value, recs[0].Value) || !bytes.Equal(g.Proof, recs[0].Proof) {
		t.Fatal("appending to a record's key or value overwrote its neighbour")
	}
}

// TestInPlaceSeekAllocs bounds the allocations of a probe against a source
// that copies nothing: only the records returned are allocated.
func TestInPlaceSeekAllocs(t *testing.T) {
	recs := seqRecords(60, 4)
	tbl, _ := buildBufTable(t, recs)
	firsts := blockFirsts(tbl, recs)

	hit := recs[37]
	if n := testing.AllocsPerRun(100, func() { tbl.Get(hit.Key, hit.Ts) }); n > 1 {
		t.Errorf("Get hit: %v allocs, want ≤ 1", n)
	}
	var negative []byte
	for i := 0; i < 60 && negative == nil; i++ {
		k := []byte(fmt.Sprintf("key%05dx", i))
		if !tbl.filters[tbl.seekBlock(k, record.MaxTs)].MayContain(k) {
			negative = k
		}
	}
	if negative == nil {
		t.Fatal("no bloom-negative key found")
	}
	if n := testing.AllocsPerRun(100, func() { tbl.Get(negative, record.MaxTs) }); n != 0 {
		t.Errorf("bloom-negative Get: %v allocs, want 0", n)
	}
	// Two record copies plus the two record pointers.
	for _, j := range []int{37, firsts[0]} {
		r := recs[j]
		if n := testing.AllocsPerRun(100, func() { tbl.SeekWithPrev(r.Key, r.Ts) }); n > 4 {
			t.Errorf("SeekWithPrev %d: %v allocs, want ≤ 4", j, n)
		}
	}
}
