package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program.
type span struct {
	ID, Parent int64 // Parent 0: a root
	Layer      string
	Name       string
	// Bg marks a root the benchmark did not cause directly: file-system
	// work of background flushes and compactions.
	Bg         bool
	Start, End int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how the untraced runs measure.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// active is the span of the benchmark's in-flight call into the
	// program (0 when none). Foreground file-system work — WAL appends and
	// syncs, seals — done while it is set becomes its child.
	active atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// setActive marks the benchmark's in-flight call (0: none).
func (t *tracer) setActive(id int64) {
	if t != nil {
		t.active.Store(id)
	}
}

// record files a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans, gzipped, one per line:
// id parent layer name bg start_ns end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for _, s := range t.snapshot() {
		bg := 0
		if s.Bg {
			bg = 1
		}
		fmt.Fprintf(bw, "%d %d %s %s %d %d %d\n", s.ID, s.Parent, s.Layer, s.Name, bg, s.Start, s.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of its interval that its children cover (overlapping children count
// once). Background roots are summed under layer+"_bg".
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		key := s.Layer
		if s.Bg {
			key += "_bg"
		}
		out[key] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
