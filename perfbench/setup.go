package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"elsm"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

// Dataset and geometry shared by every workload: the paper's sizes divided
// by scale, as elsm-bench -scale 128 would (1 MB EPC, 32 KB memtable and
// tables, 80 KB level base). The ~5.8 MB of user data is ~6x the EPC and
// fills four levels below L1, the same ratios as elsm-bench's default
// scale 32 with 200k records, at a quarter of the set-up time, which every
// run pays setUpReps times.
const (
	scale      = 128
	numRecords = 50_000
	valueSize  = ycsb.DefaultValueSize
	recordSize = ycsb.DefaultKeySize + valueSize
	// stride spaces the loaded keys (key index stride*i) so ycsb-e-p2 can
	// insert fresh keys inside the ranges it scans.
	stride = 4
	// loadBatch is how many records one load commit carries. Fixed, so
	// flushes fall at the same records in every set-up.
	loadBatch = 256
	// loadOrderSeed fixes the load order: the tree's shape must not
	// depend on the workload seed.
	loadOrderSeed = 20211206
)

// storeOptions is the store configuration under test. inline selects the
// set-up configuration: inline compaction makes the loaded tree's shape
// exact; the measured phase reopens with background maintenance, the
// production setting.
func storeOptions(mode elsm.Mode, fs vfs.FS, p *sgx.Platform, c *sgx.MonotonicCounter, inline bool) elsm.Options {
	return elsm.Options{
		Mode:                  mode,
		FS:                    fs,
		EPCSize:               128 << 20 / scale,
		SimulateHardwareCosts: true,
		MmapReads:             true,
		KeepVersions:          1,
		MemtableSize:          4 << 20 / scale,
		TableFileSize:         4 << 20 / scale,
		LevelBase:             10 << 20 / scale,
		MaxLevels:             7,
		Platform:              p,
		Counter:               c,
		InlineCompaction:      inline,
	}
}

// env is one set-up store, ready for the measured phase.
type env struct {
	store   *elsm.Store
	fs      *countFS
	counter *sgx.MonotonicCounter
	fp      fingerprint
	took    time.Duration
}

// setUp opens a store, loads the dataset through public Batch commits,
// settles, closes and reopens it with the production configuration on the
// same file system and roots of trust.
func setUp(mode elsm.Mode) (*env, error) {
	start := time.Now()
	mem := vfs.NewMem()
	fs := newCountFS(mem)
	platform := sgx.NewPlatformFromSecret([]byte("perfbench"))
	counter := sgx.NewMonotonicCounter()

	store, err := elsm.Open(storeOptions(mode, fs, platform, counter, true))
	if err != nil {
		return nil, fmt.Errorf("open for load: %w", err)
	}
	order := rand.New(rand.NewSource(loadOrderSeed)).Perm(numRecords)
	b := store.NewBatch()
	for i, k := range order {
		idx := uint64(k) * stride
		b.Put(ycsb.Key(idx), valueOf(idx, 0))
		if b.Len() == loadBatch || i == len(order)-1 {
			if _, err := b.Commit(); err != nil {
				store.Close()
				return nil, fmt.Errorf("load commit: %w", err)
			}
			b.Reset()
		}
	}
	if err := store.Flush(); err != nil {
		store.Close()
		return nil, fmt.Errorf("settle flush: %w", err)
	}
	if err := store.WaitMaintenance(); err != nil {
		store.Close()
		return nil, fmt.Errorf("settle: %w", err)
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		return nil, fmt.Errorf("close after load: %w", err)
	}

	store, err = elsm.Open(storeOptions(mode, fs, platform, counter, false))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := store.WaitMaintenance(); err != nil {
		store.Close()
		return nil, fmt.Errorf("settle after reopen: %w", err)
	}
	runs, err := runsPerLevel(mem)
	if err != nil {
		store.Close()
		return nil, err
	}
	e := &env{
		store:   store,
		fs:      fs,
		counter: counter,
		fp: fingerprint{
			LoadFlushes:     st.Flushes,
			LoadCompactions: st.Compactions,
			RunsPerLevel:    runs,
			DiskBytes:       store.Stats().DiskBytes,
		},
	}
	e.took = time.Since(start)
	return e, nil
}

// runsPerLevel reads the run count of each level from the MANIFEST the
// store keeps in the (untrusted) file system the benchmark owns.
func runsPerLevel(fs vfs.FS) ([]int, error) {
	f, err := fs.Open("MANIFEST")
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.NewSectionReader(f, 0, f.Size()))
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m struct {
		Levels [][]json.RawMessage `json:"levels"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse manifest: %w", err)
	}
	out := make([]int, len(m.Levels))
	for i, l := range m.Levels {
		out[i] = len(l)
	}
	return out, nil
}

// userBytes is the loaded user data.
func userBytes() float64 { return float64(numRecords * recordSize) }
