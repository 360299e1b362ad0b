package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FileSink is the os.File-backed log sink: real writes, a real fsync, and
// prefix truncation on disk. It implements TruncatableSink and Syncer, so a
// Logger over a FileSink gets durable group commit (every Flush fsyncs) and
// TruncateWAL works against the actual file.
//
// Durability semantics, precisely:
//
//   - Sync is os.File.Sync. A FAILED sync poisons the sink permanently
//     (sticky error on every later Write/Sync/DropPrefix): after fsync
//     reports an error the kernel may already have dropped the dirty pages,
//     so a retried sync that "succeeds" proves nothing — the fsyncgate
//     rule. The Logger above applies the same rule to itself.
//
//   - DropPrefix truncates by rewrite-and-rename (ReplaceFile). A crash at
//     any point leaves either the old file (prefix not yet dropped —
//     harmless, replay is idempotent above the checkpoint watermark) or the
//     new one; the half-written temp file is ignored and removed by
//     OpenFileSink.
//
//   - The file's content is exactly the retained log bytes: reopening after
//     a crash needs no sidecar state. A Logger attached to the reopened
//     sink continues the log: it cuts a torn tail (cutTail) and numbers new
//     records after the retained ones.
type FileSink struct {
	mu   sync.Mutex
	f    *os.File // guarded by mu; swapped by DropPrefix
	path string   // immutable after OpenFileSink
	size int64    // guarded by mu; bytes retained in the file
	err  error    // guarded by mu; sticky after a failed sync (fsyncgate)
}

// tmpSuffix names ReplaceFile's scratch file; openers remove a stale one
// left by a crash mid-replacement.
const tmpSuffix = ".tmp"

// OpenFileSink opens (creating if needed) the log file at path for
// appending. An existing file is appended to — its content is the retained
// log from the previous run.
func OpenFileSink(path string) (*FileSink, error) {
	// A crash between writing and renaming the truncation temp file leaves
	// it behind; it is scratch, never authoritative.
	_ = os.Remove(path + tmpSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open file sink: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open file sink: %w", err)
	}
	return &FileSink{f: f, path: path, size: size}, nil
}

// Path returns the log file's path.
func (s *FileSink) Path() string { return s.path }

// Write appends p to the file. Short writes surface as io.ErrShortWrite; a
// poisoned sink (failed sync) rejects every write.
func (s *FileSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.f.Write(p)
	s.size += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// Sync makes every written byte durable (os.File.Sync). A failure poisons
// the sink permanently: never retry-and-trust a failed fsync.
func (s *FileSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("wal: file sink poisoned by failed fsync (%v); durability of prior writes is unknown", err)
		return s.err
	}
	return nil
}

// DropPrefix discards the first n retained bytes by rewrite-and-rename.
// The remaining bytes stay byte-exact. A failure before the rename leaves
// the old file authoritative; a failure after it poisons the sink, because
// the path may then name a file whose rename a power loss can undo.
func (s *FileSink) DropPrefix(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if n < 0 || n > s.size {
		return fmt.Errorf("wal: DropPrefix(%d) with %d bytes retained", n, s.size)
	}
	if n == 0 {
		return nil
	}
	rest := make([]byte, s.size-n)
	if _, err := s.f.ReadAt(rest, n); err != nil {
		return fmt.Errorf("wal: truncate read: %w", err)
	}
	nf, err := ReplaceFile(s.path, rest)
	if err != nil {
		if errors.Is(err, errDirSync) {
			s.err = fmt.Errorf("wal: file sink poisoned by truncation: %w", err)
		}
		return fmt.Errorf("wal: truncate: %w", err)
	}
	s.f.Close()
	s.f = nf
	s.size -= n
	return nil
}

// cutTail discards every retained byte past the first n — the torn tail a
// crash left — and makes the cut durable. A failure poisons the sink: the
// file's length is then unknown.
func (s *FileSink) cutTail(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if n < 0 || n > s.size {
		return fmt.Errorf("wal: cutTail(%d) with %d bytes retained", n, s.size)
	}
	err := s.f.Truncate(n)
	if err == nil {
		err = s.f.Sync()
	}
	if err == nil {
		_, err = s.f.Seek(n, io.SeekStart)
	}
	if err != nil {
		s.err = fmt.Errorf("wal: file sink poisoned by a failed tail cut: %w", err)
		return s.err
	}
	s.size = n
	return nil
}

// Len returns the number of retained bytes.
func (s *FileSink) Len() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Err returns the sticky poisoning error, nil while the sink is healthy.
func (s *FileSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Retained reads back the retained bytes — the durable log — from the file.
func (s *FileSink) Retained() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("wal: read file sink: %w", err)
	}
	return buf, nil
}

// Close closes the underlying file.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// errDirSync marks a ReplaceFile failure after the rename: the path
// already names the new content, but the directory sync failed, so a power
// loss may still bring the old file back.
var errDirSync = errors.New("directory sync after rename failed")

// ReplaceFile atomically replaces the file at path with data: it writes a
// temp file beside path, fsyncs it, renames it over path and fsyncs the
// directory. It returns the new file, open for reading and writing and
// positioned at its end, so a caller that keeps appending never reopens
// the path. An error before the rename leaves path untouched; after it
// only the directory sync can fail, and then path names the new content
// but a power loss may bring the old file back.
func ReplaceFile(path string, data []byte) (*os.File, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of a failed write
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", errDirSync, err)
	}
	return f, nil
}

// syncDir fsyncs a directory so a rename inside it survives a power loss.
// It is a variable so tests can make the step fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
