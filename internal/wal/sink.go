package wal

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// TruncatableSink is a log sink that can discard a durable prefix — the
// capability Logger.TruncateTo needs so a checkpoint can bound log growth.
// A file-backed implementation would delete sealed segment files below the
// watermark; BufferSink is the in-memory equivalent.
type TruncatableSink interface {
	io.Writer
	// DropPrefix discards the first n retained bytes. The remaining bytes
	// must stay byte-exact: replay of the sink after a drop yields exactly
	// the records past the dropped prefix.
	DropPrefix(n int64) error
}

// retainingSink is a sink that may already hold a log when a Logger
// attaches to it: a log file reopened after a crash, or a buffer that
// outlived its database. NewLogger continues that log instead of starting
// a new one (Logger.resume).
type retainingSink interface {
	// Retained returns a copy of the bytes the sink already holds.
	Retained() ([]byte, error)
	// cutTail discards every byte past the first n.
	cutTail(n int64) error
}

// BufferSink is an in-memory, mutex-guarded log sink supporting prefix
// truncation. It is safe for concurrent use (the logger flushes from
// multiple committers) and doubles as the recovery source via Reader.
type BufferSink struct {
	mu  sync.Mutex
	buf []byte // guarded by mu
}

// Write appends p to the retained bytes.
func (b *BufferSink) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// DropPrefix discards the first n retained bytes.
func (b *BufferSink) DropPrefix(n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 || n > int64(len(b.buf)) {
		return fmt.Errorf("wal: DropPrefix(%d) with %d bytes retained", n, len(b.buf))
	}
	b.buf = append(b.buf[:0], b.buf[n:]...)
	return nil
}

// cutTail discards every retained byte past the first n.
func (b *BufferSink) cutTail(n int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 || n > int64(len(b.buf)) {
		return fmt.Errorf("wal: cutTail(%d) with %d bytes retained", n, len(b.buf))
	}
	b.buf = b.buf[:n]
	return nil
}

// Retained returns a copy of the retained bytes (never fails).
func (b *BufferSink) Retained() ([]byte, error) { return b.Bytes(), nil }

// Bytes returns a copy of the retained bytes.
func (b *BufferSink) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf...)
}

// Len returns the number of retained bytes.
func (b *BufferSink) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Reader returns a reader over a snapshot of the retained bytes (the log
// tail handed to recovery).
func (b *BufferSink) Reader() io.Reader {
	return bytes.NewReader(b.Bytes())
}
