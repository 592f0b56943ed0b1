package sstable

import (
	"bytes"
	"errors"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// FuzzParseBlock walks arbitrary block bytes frame by frame, the way every
// read walks a block the host hands over: each frame must either parse
// inside the block, borrowing only its own bytes, or fail with ErrBadTable
// — never panic.
func FuzzParseBlock(f *testing.F) {
	var block []byte
	for _, rec := range seqRecords(3, 2) {
		block = appendRecord(block, rec)
	}
	f.Add(block)
	f.Add(appendRecord(nil, record.Record{Kind: record.KindDelete, Key: []byte("k"), Ts: 9}))
	f.Add(append([]byte{byte(record.KindSet)}, hostileLen...))
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			fr, n, err := parseFrame(data, off)
			if err != nil {
				if !errors.Is(err, ErrBadTable) {
					t.Fatalf("frame at %d: untyped error %v", off, err)
				}
				return
			}
			// Kind, ts and three length bytes at the least.
			if body := 1 + 8 + 3 + len(fr.key) + len(fr.value) + len(fr.proof); n < body || n > len(data)-off {
				t.Fatalf("frame at %d: length %d for %d body bytes in %d block bytes", off, n, body, len(data)-off)
			}
			for _, part := range [][]byte{fr.key, fr.value, fr.proof} {
				if cap(part) != len(part) {
					t.Fatalf("frame at %d: borrowed part has spare capacity %d", off, cap(part)-len(part))
				}
			}
			rec := fr.own()
			if !bytes.Equal(rec.Key, fr.key) || !bytes.Equal(rec.Value, fr.value) || !bytes.Equal(rec.Proof, fr.proof) ||
				rec.Ts != fr.ts || rec.Kind != fr.kind {
				t.Fatalf("frame at %d: own() differs from the frame", off)
			}
			off += n
		}
	})
}

// FuzzOpenTable opens arbitrary file bytes as a table and, when that
// succeeds, reads every record the way the engine does: every fault must
// surface as an error, never a panic.
func FuzzOpenTable(f *testing.F) {
	fs := vfs.NewMem()
	file, err := fs.Create("seed.sst")
	if err != nil {
		f.Fatal(err)
	}
	b := NewBuilder(file, BuilderOptions{BlockSize: 64, FileNum: 7})
	for _, rec := range seqRecords(6, 2) {
		if err := b.Add(rec); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := vfs.NewMem()
		file, err := fs.Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Append(data); err != nil {
			t.Fatal(err)
		}
		tbl, err := Open(file, 7, &FileSource{F: file})
		if err != nil {
			if !errors.Is(err, ErrBadTable) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		it := tbl.Iter()
		for it.SeekGE(nil, record.MaxTs); it.Valid(); it.Next() {
			it.Record()
		}
		_ = it.Close()
		for _, key := range [][]byte{nil, []byte("key00003"), []byte("zzz")} {
			_, _, _ = tbl.Get(key, record.MaxTs)
			_, _, _ = tbl.SeekWithPrev(key, record.MaxTs)
		}
		_, _ = tbl.Last()
	})
}
