package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request share
// Trace; Parent is 0 for a root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxRoots and maxSpans bound a traced run's memory and span file: a root
// span is kept while its name has fewer than maxRoots kept traces and fewer
// than maxSpans spans are kept in all; a child is kept iff its parent was.
// Traces are kept whole, and every kept span's parent is kept too.
const (
	maxRoots = 20000
	maxSpans = 1 << 18
)

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	roots map[string]int  // guarded by mu; kept traces per root name
	kept  map[uint64]bool // guarded by mu; ids of kept spans
	spans []span          // guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), roots: make(map[string]int), kept: make(map[uint64]bool)}
}

// open is a span that has started and not yet ended. Spans that are not
// kept still time their call.
type open struct {
	tr    *tracer
	s     span
	keep  bool
	start time.Time
}

// begin starts a span. trace 0 starts a new trace rooted at this span.
func (t *tracer) begin(name string, trace, parent uint64) *open {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	t.mu.Lock()
	keep := t.kept[parent]
	if parent == 0 && t.roots[name] < maxRoots && len(t.kept) < maxSpans {
		t.roots[name]++
		keep = true
	}
	if keep {
		t.kept[id] = true
	}
	t.mu.Unlock()
	now := time.Now()
	return &open{tr: t, keep: keep, start: now, s: span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(now.Sub(t.t0))}}
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	o.s.End = int64(now.Sub(o.tr.t0))
	if o.keep {
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, o.s)
		o.tr.mu.Unlock()
	}
	return now.Sub(o.start)
}

func (o *open) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) trace() uint64 {
	if o == nil {
		return 0
	}
	return o.s.Trace
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span name's mean self time in microseconds: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total[s.Name] += float64(s.End-s.Start-covered) / 1e3
		count[s.Name]++
	}
	out := make(map[string]float64, len(total))
	for name, t := range total {
		out[name] = t / float64(count[name])
	}
	return out
}

// checkSpans verifies the traced run's spans are well formed: ends not
// before starts, unique ids, and every parent present in the same trace.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Trace != s.ID {
				return fmt.Errorf("root span %d (%s) has trace %d", s.ID, s.Name, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
		}
	}
	return nil
}

// writeSpans writes one JSON span per line to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
