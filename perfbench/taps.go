package main

import (
	"sync"
	"sync/atomic"
	"time"

	"lstore"
)

// The taps are pass-through wrappers the traced pass puts around the
// program's own sinks, so a layer is timed at its boundary without changing
// what it does.

// spillTap forwards a table's SpillSink calls to the file spill, timing
// Append (set-up) and ReadAt (pool misses). ReadAt spans are attributed to
// the one query in flight.
type spillTap struct {
	sink lstore.SpillSink
	tr   *tracer
	cur  atomic.Pointer[open] // the analyst's current query span

	mu        sync.Mutex
	appendDur time.Duration // guarded by mu
	reads     samples       // guarded by mu
	readBytes int64         // guarded by mu
}

func (s *spillTap) Append(payload []byte) (lstore.SpillDesc, error) {
	t0 := time.Now()
	d, err := s.sink.Append(payload)
	el := time.Since(t0)
	s.mu.Lock()
	s.appendDur += el
	s.mu.Unlock()
	return d, err
}

func (s *spillTap) ReadAt(d lstore.SpillDesc) ([]byte, error) {
	q := s.cur.Load()
	sp := s.tr.begin("bufpool.read", q.trace(), q.id())
	b, err := s.sink.ReadAt(d)
	el := sp.end()
	s.mu.Lock()
	s.reads.add(el)
	s.readBytes += int64(len(b))
	s.mu.Unlock()
	return b, err
}

func (s *spillTap) Sync() error { return s.sink.Sync() }

// takeAppendMs returns and resets the time spent in Append.
func (s *spillTap) takeAppendMs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := float64(s.appendDur) / 1e6
	s.appendDur = 0
	return ms
}

// takeReads returns and resets the ReadAt timings and bytes.
func (s *spillTap) takeReads() (samples, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, n := s.reads, s.readBytes
	s.reads, s.readBytes = samples{}, 0
	return r, n
}

// walTap forwards the logger's Write, Sync and DropPrefix to the WAL file.
// Write and Sync spans have no request parent: one leader flush covers
// many commits.
type walTap struct {
	f  *lstore.WALFile
	tr *tracer

	mu      sync.Mutex
	busy    time.Duration // guarded by mu; Write + Sync
	syncs   samples       // guarded by mu
	written int64         // guarded by mu
}

func (w *walTap) Write(p []byte) (int, error) {
	sp := w.tr.begin("wal.write", 0, 0)
	n, err := w.f.Write(p)
	el := sp.end()
	w.mu.Lock()
	w.busy += el
	w.written += int64(n)
	w.mu.Unlock()
	return n, err
}

func (w *walTap) Sync() error {
	sp := w.tr.begin("wal.sync", 0, 0)
	err := w.f.Sync()
	el := sp.end()
	w.mu.Lock()
	w.busy += el
	w.syncs.add(el)
	w.mu.Unlock()
	return err
}

func (w *walTap) DropPrefix(n int64) error { return w.f.DropPrefix(n) }

// take returns and resets the tap's tallies.
func (w *walTap) take() (busy time.Duration, syncs samples, written int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	busy, syncs, written = w.busy, w.syncs, w.written
	w.busy, w.syncs, w.written = 0, samples{}, 0
	return busy, syncs, written
}
