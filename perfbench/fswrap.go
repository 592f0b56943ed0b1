package main

import (
	"strings"
	"sync/atomic"
	"time"

	"elsm/internal/vfs"
)

// fileKind classifies the store's files by name, so write and sync counts
// can be charged to the path that caused them.
type fileKind int

const (
	kindWAL fileKind = iota
	kindSST
	kindManifest
	kindTrusted
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"wal", "sst", "manifest", "trusted", "other"}

func kindOf(name string) fileKind {
	base := name[strings.LastIndexByte(name, '/')+1:]
	switch {
	case strings.HasPrefix(base, "wal"):
		return kindWAL
	case strings.HasSuffix(base, ".sst"):
		return kindSST
	case strings.HasPrefix(base, "MANIFEST"):
		return kindManifest
	case strings.HasPrefix(base, "TRUSTED"):
		return kindTrusted
	}
	return kindOther
}

// kindCounters counts one file kind's traffic.
type kindCounters struct {
	writes, writeBytes, writeNanos atomic.Uint64 // Append and WriteAt
	syncs, syncNanos               atomic.Uint64
	readBytes                      atomic.Uint64 // ReadAt; mmap views are not reads
}

// fsCounts is a plain copy of the counters, for deltas.
type fsCounts struct {
	Writes, WriteBytes, WriteNanos [numKinds]uint64
	Syncs, SyncNanos               [numKinds]uint64
	ReadBytes                      [numKinds]uint64
	Seals, SealNanos               uint64
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	for k := 0; k < int(numKinds); k++ {
		c.Writes[k] -= o.Writes[k]
		c.WriteBytes[k] -= o.WriteBytes[k]
		c.WriteNanos[k] -= o.WriteNanos[k]
		c.Syncs[k] -= o.Syncs[k]
		c.SyncNanos[k] -= o.SyncNanos[k]
		c.ReadBytes[k] -= o.ReadBytes[k]
	}
	c.Seals -= o.Seals
	c.SealNanos -= o.SealNanos
	return c
}

func sum(v [numKinds]uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// countFS wraps the vfs.FS the benchmark hands to Options.FS. It counts
// and times every call by file kind, and recognizes a seal of the trusted
// state (a write of TRUSTED.bin.tmp renamed over TRUSTED.bin). With a
// tracer it also records each call as a span.
type countFS struct {
	inner vfs.FS
	k     [numKinds]kindCounters

	sealStart atomic.Int64 // UnixNano of the pending seal's tmp create
	seals     atomic.Uint64
	sealNanos atomic.Uint64

	tr atomic.Pointer[tracer]
}

var _ vfs.FS = (*countFS)(nil)

func newCountFS(inner vfs.FS) *countFS { return &countFS{inner: inner} }

func (fs *countFS) counts() fsCounts {
	var c fsCounts
	for i := range fs.k {
		k := &fs.k[i]
		c.Writes[i] = k.writes.Load()
		c.WriteBytes[i] = k.writeBytes.Load()
		c.WriteNanos[i] = k.writeNanos.Load()
		c.Syncs[i] = k.syncs.Load()
		c.SyncNanos[i] = k.syncNanos.Load()
		c.ReadBytes[i] = k.readBytes.Load()
	}
	c.Seals = fs.seals.Load()
	c.SealNanos = fs.sealNanos.Load()
	return c
}

// traceCall files one finished call as a span: a child of the benchmark's
// in-flight call for foreground kinds, a background root otherwise.
func (fs *countFS) traceCall(kind fileKind, op string, start time.Time, d time.Duration) {
	tr := fs.tr.Load()
	if tr == nil {
		return
	}
	s := span{ID: tr.newID(), Layer: "vfs", Name: "vfs." + kindNames[kind] + "." + op}
	if kind == kindWAL || kind == kindTrusted {
		s.Parent = tr.active.Load()
	}
	s.Bg = s.Parent == 0
	s.Start = int64(start.Sub(tr.epoch))
	s.End = s.Start + int64(d)
	tr.record(s)
}

func (fs *countFS) Create(name string) (vfs.File, error) {
	kind := kindOf(name)
	if kind == kindTrusted && strings.HasSuffix(name, ".tmp") {
		fs.sealStart.Store(time.Now().UnixNano())
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{fs: fs, inner: f, kind: kind}, nil
}

func (fs *countFS) Open(name string) (vfs.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{fs: fs, inner: f, kind: kindOf(name)}, nil
}

func (fs *countFS) Remove(name string) error { return fs.inner.Remove(name) }

func (fs *countFS) Rename(oldName, newName string) error {
	kind := kindOf(newName)
	start := time.Now()
	err := fs.inner.Rename(oldName, newName)
	d := time.Since(start)
	if err == nil && kind == kindTrusted && !strings.HasSuffix(newName, ".tmp") {
		if t0 := fs.sealStart.Swap(0); t0 != 0 {
			fs.seals.Add(1)
			fs.sealNanos.Add(uint64(time.Now().UnixNano() - t0))
		}
	}
	fs.traceCall(kind, "rename", start, d)
	return err
}

func (fs *countFS) List(prefix string) ([]string, error) { return fs.inner.List(prefix) }
func (fs *countFS) Exists(name string) bool              { return fs.inner.Exists(name) }

type countFile struct {
	fs    *countFS
	inner vfs.File
	kind  fileKind
}

func (f *countFile) wrote(n int, start time.Time) {
	d := time.Since(start)
	k := &f.fs.k[f.kind]
	k.writes.Add(1)
	k.writeBytes.Add(uint64(n))
	k.writeNanos.Add(uint64(d))
	f.fs.traceCall(f.kind, "write", start, d)
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.wrote(n, start)
	return n, err
}

func (f *countFile) Append(p []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Append(p)
	f.wrote(n, start)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	f.fs.k[f.kind].readBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	d := time.Since(start)
	k := &f.fs.k[f.kind]
	k.syncs.Add(1)
	k.syncNanos.Add(uint64(d))
	f.fs.traceCall(f.kind, "sync", start, d)
	return err
}

func (f *countFile) Size() int64               { return f.inner.Size() }
func (f *countFile) Bytes() []byte             { return f.inner.Bytes() }
func (f *countFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *countFile) Close() error              { return f.inner.Close() }
