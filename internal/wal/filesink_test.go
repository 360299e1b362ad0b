package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lstore/internal/fault"
)

func openTestFileSink(t *testing.T) *FileSink {
	t.Helper()
	s, err := OpenFileSink(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestFileSinkMatchesBufferSink drives the same record stream through a
// FileSink and a BufferSink, with interleaved truncations, and requires
// byte-identical retained state at every step — the file implementation is
// held to the in-memory reference.
func TestFileSinkMatchesBufferSink(t *testing.T) {
	fs := openTestFileSink(t)
	bs := &BufferSink{}
	lf := NewLogger(fs, nil)
	lb := NewLogger(bs, nil)

	check := func(label string) {
		t.Helper()
		fb, err := fs.Retained()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !bytes.Equal(fb, bs.Bytes()) {
			t.Fatalf("%s: file sink diverged from buffer sink (%d vs %d bytes)", label, len(fb), bs.Len())
		}
	}

	for i := uint64(1); i <= 20; i++ {
		rec := Record{Kind: KindInsert, TxnID: i, Key: i, Vals: []uint64{i * 3}}
		if _, err := lf.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := lb.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := lf.AppendCommit(i); err != nil {
				t.Fatal(err)
			}
			if _, err := lb.AppendCommit(i); err != nil {
				t.Fatal(err)
			}
			check("after commit")
		}
		if i == 10 {
			if err := lf.TruncateTo(7); err != nil {
				t.Fatal(err)
			}
			if err := lb.TruncateTo(7); err != nil {
				t.Fatal(err)
			}
			check("after truncation")
		}
	}
	// The retained file replays to the same records as the buffer.
	fb, _ := fs.Retained()
	recs, err := ReadAll(bytes.NewReader(fb))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].LSN != 8 {
		t.Fatalf("retained file starts at LSN %d with %d records, want LSN 8", recs[0].LSN, len(recs))
	}
}

// TestFileSinkReopenAfterCrash simulates a kill: write+sync, abandon the
// handle, reopen the path, and require the retained bytes (including a torn
// tail) to replay exactly.
func TestFileSinkReopenAfterCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	s, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLogger(s, nil)
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(Record{Kind: KindInsert, TxnID: 1, Key: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendCommit(1); err != nil {
		t.Fatal(err)
	}
	// Tear the tail at the device level: an unsynced half-record.
	if _, err := s.Write([]byte{0xEE, 0xDD, 0xCC}); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the handles, leave a stale truncation temp file behind.
	if err := os.WriteFile(path+tmpSuffix, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(path + tmpSuffix); !os.IsNotExist(err) {
		t.Fatal("stale truncation temp file survived reopen")
	}
	data, err := s2.Retained()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Kind != KindCommit {
		t.Fatalf("reopened log replays %d records", len(recs))
	}
	// A logger on the reopened sink continues the log: it cuts the torn
	// tail, and its records follow the retained ones in LSN and in bytes.
	l2 := NewLogger(s2, nil)
	if lsn, err := l2.Append(Record{Kind: KindBegin, TxnID: 2}); err != nil || lsn != 5 {
		t.Fatalf("first append after reopen: LSN %d, err %v; want LSN 5", lsn, err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err = s2.Retained()
	if err != nil {
		t.Fatal(err)
	}
	if rep := Verify(bytes.NewReader(data)); rep.Records != 5 || rep.TornBytes != 0 || rep.LastLSN != 5 {
		t.Fatalf("continued log: %d records up to LSN %d, %d torn bytes; want 5 clean records", rep.Records, rep.LastLSN, rep.TornBytes)
	}
}

// TestReopenedLoggerTruncatesWholeRecords: a logger attached to a sink that
// already holds records counts them, so a truncation right after the reopen
// drops exactly the records at or below the watermark — never part of one.
func TestReopenedLoggerTruncatesWholeRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink func(t *testing.T) TruncatableSink
	}{
		{"buffer", func(t *testing.T) TruncatableSink { return &BufferSink{} }},
		{"file", func(t *testing.T) TruncatableSink { return openTestFileSink(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := tc.sink(t)
			l := NewLogger(sink, nil)
			for i := uint64(1); i <= 6; i++ {
				if _, err := l.Append(Record{Kind: KindInsert, TxnID: i, Key: i, Vals: make([]uint64, i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			l2 := NewLogger(sink, nil) // the reopen
			if _, err := l2.Append(Record{Kind: KindCommit, TxnID: 7}); err != nil {
				t.Fatal(err)
			}
			if err := l2.TruncateTo(4); err != nil {
				t.Fatal(err)
			}
			data, err := sink.(retainingSink).Retained()
			if err != nil {
				t.Fatal(err)
			}
			recs, err := ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 || recs[0].LSN != 5 || recs[2].LSN != 7 {
				t.Fatalf("after reopen and TruncateTo(4): %d records from LSN %d; want LSNs 5..7", len(recs), recs[0].LSN)
			}
		})
	}
}

// TestReplaceFileDirSyncFailure forces the directory sync after the rename
// to fail. ReplaceFile must report it (the rename may not survive a power
// loss), a checkpoint-style caller sees the error, and a file sink whose
// truncation hit it is poisoned instead of writing on.
func TestReplaceFileDirSyncFailure(t *testing.T) {
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(string) error { return errors.New("injected directory sync failure") }

	path := filepath.Join(t.TempDir(), "image")
	f, err := ReplaceFile(path, []byte("new"))
	if !errors.Is(err, errDirSync) || f != nil {
		t.Fatalf("ReplaceFile with a failing directory sync: file %v, err %v; want errDirSync", f, err)
	}

	s := openTestFileSink(t)
	l := NewLogger(s, nil)
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(Record{Kind: KindInsert, TxnID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateTo(1); !errors.Is(err, errDirSync) {
		t.Fatalf("truncation over a failing directory sync: %v, want errDirSync", err)
	}
	if s.Err() == nil {
		t.Fatal("file sink not poisoned after a failure past the rename")
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write after a poisoning truncation succeeded")
	}
}

// TestFileSinkSyncFailureIsSticky pins the fsyncgate rule at the sink
// level: once Sync fails, every later Write/Sync/DropPrefix fails with the
// poisoning error — the sink never pretends a retried sync proves anything.
func TestFileSinkSyncFailureIsSticky(t *testing.T) {
	s := openTestFileSink(t)
	if _, err := s.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Force a real fsync failure: yank the descriptor out from under the
	// sink. (EBADF is not EIO, but the sink must treat any sync failure the
	// same way.)
	s.f.Close()
	if err := s.Sync(); err == nil {
		t.Fatal("sync on closed descriptor succeeded")
	}
	if err := s.Err(); err == nil {
		t.Fatal("sink not poisoned after failed sync")
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write after failed sync succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("retried sync after failure succeeded — retry-and-trust")
	}
	if err := s.DropPrefix(1); err == nil {
		t.Fatal("truncation after failed sync succeeded")
	}
}

// TestSyncFailurePoisonsLogger pins the fsyncgate rule at the LOGGER level
// (the acceptance regression): a failed fsync during flush permanently
// poisons the logger — appends, flushes, commits, and truncations all
// refuse — even though the device "heals" afterwards.
func TestSyncFailurePoisonsLogger(t *testing.T) {
	inner := &BufferSink{}
	s := fault.NewSink(inner, fault.FailSync(1))
	l := NewLogger(s, nil)
	if _, err := l.Append(Record{Kind: KindInsert, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err == nil {
		t.Fatal("flush with failing fsync succeeded")
	}
	// The device heals (the fault was one-shot) — the logger must not care.
	if _, err := l.Append(Record{Kind: KindInsert, TxnID: 2}); err == nil {
		t.Fatal("append after failed fsync succeeded")
	}
	if err := l.Flush(); err == nil {
		t.Fatal("retried flush after failed fsync succeeded — retry-and-trust")
	}
	if _, err := l.AppendCommit(2); err == nil {
		t.Fatal("commit after failed fsync succeeded")
	}
	if err := l.TruncateTo(1); err == nil {
		t.Fatal("truncation after failed fsync succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after fsync poisoning")
	}
	if l.FlushedLSN() != 0 {
		t.Fatalf("FlushedLSN = %d after failed sync; nothing was proven durable", l.FlushedLSN())
	}
}

// TestShortWriteSinkPoisonsLogger pins the defensive short-write check: a
// sink that returns n < len(p) with a nil error (misbehaving io.Writer) is
// treated as a torn write — the flush fails and the logger poisons itself
// instead of silently corrupting its offset bookkeeping.
func TestShortWriteSinkPoisonsLogger(t *testing.T) {
	inner := &BufferSink{}
	s := fault.NewSink(inner, fault.ShortWrite(1, 5))
	l := NewLogger(s, nil)
	if _, err := l.Append(Record{Kind: KindInsert, TxnID: 1, Vals: []uint64{7}}); err != nil {
		t.Fatal(err) // buffered; the lie happens at flush
	}
	if err := l.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("flush over short-writing sink = %v, want io.ErrShortWrite", err)
	}
	if _, err := l.Append(Record{Kind: KindInsert, TxnID: 2}); err == nil {
		t.Fatal("append after short write succeeded")
	}
	if l.Err() == nil {
		t.Fatal("logger not poisoned by short write")
	}
}

// TestWriteFrameShortWrite pins the same check on the direct frame path
// (checkpoint images write frames straight to caller-provided writers).
func TestWriteFrameShortWrite(t *testing.T) {
	inner := &BufferSink{}
	s := fault.NewSink(inner, fault.ShortWrite(2, 1)) // tear the payload write
	err := WriteFrame(s, []byte("payload"))
	if err == nil {
		t.Fatal("WriteFrame over short-writing sink succeeded")
	}
}
