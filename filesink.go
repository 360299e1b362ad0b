package lstore

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"lstore/internal/wal"
)

// This file is the real-disk half of the durability subsystem: file-backed
// WAL and checkpoint sinks with honest fsync semantics, plus offline
// verification of checkpoint images. The in-memory sinks (WALBuffer,
// CheckpointBuffer) remain the reference implementations; the crash-torture
// suite holds these to the same recovery properties.

// WALFile is a file-backed, truncatable WAL sink (an alias for the wal
// package's FileSink): pass one to WithWAL for a log that survives the
// process. Writes are buffered by the logger and made durable by Sync at
// each flush; a failed fsync poisons the sink permanently (never
// retry-and-trust a failed sync). Truncation rewrites the retained suffix
// and atomically renames it into place.
type WALFile = wal.FileSink

// OpenWALFile opens (creating if absent) a file-backed WAL sink at path and
// positions it to append after any bytes already durable there. A stale
// truncation temp file from a crashed truncation is removed. A database
// opened WithWAL over a non-empty file continues that log; recover it from
// the same file's bytes.
func OpenWALFile(path string) (*WALFile, error) { return wal.OpenFileSink(path) }

// FileCheckpointSink is a file-backed CheckpointSink: each image is written
// to a temp file, fsynced, and atomically renamed over the previous one, so
// the file at path always holds a complete image — a crash mid-write leaves
// the previous checkpoint authoritative. Latest works after a process
// restart by re-reading (and verifying) the file.
type FileCheckpointSink struct {
	mu    sync.Mutex
	path  string
	info  CheckpointInfo // guarded by mu; valid when taken > 0
	taken int            // guarded by mu; images written by THIS process
}

// NewFileCheckpointSink creates a sink storing its latest image at path. A
// stale temp file from a crashed write is removed; an existing complete
// image at path is preserved and served by Latest.
func NewFileCheckpointSink(path string) (*FileCheckpointSink, error) {
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("lstore: checkpoint sink: %w", err)
	}
	return &FileCheckpointSink{path: path}, nil
}

// Checkpoint durably replaces the latest image (wal.ReplaceFile: temp
// file, fsync, rename, directory fsync). Any failure returns an error, so
// the background checkpointer skips WAL truncation for the round; a failure
// before the rename also keeps the previous image in place.
func (s *FileCheckpointSink) Checkpoint(image []byte, info CheckpointInfo) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := wal.ReplaceFile(s.path, image)
	if err != nil {
		return fmt.Errorf("lstore: checkpoint image: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lstore: checkpoint image: %w", err)
	}
	s.info = info
	s.taken++
	return nil
}

// Latest returns a reader over the most recent complete image and its info;
// ok is false when no image exists. After a restart (no image written by
// this process yet) the file is verified and its info reconstructed from the
// image itself — a torn or corrupt file is reported as absent rather than
// handed to restore.
func (s *FileCheckpointSink) Latest() (io.Reader, CheckpointInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path)
	if err != nil {
		return nil, CheckpointInfo{}, false
	}
	info := s.info
	if s.taken == 0 {
		rep := VerifyCheckpoint(bytes.NewReader(data))
		if !rep.Complete {
			return nil, CheckpointInfo{}, false
		}
		info = rep.Info
	}
	return bytes.NewReader(data), info, true
}

// Taken returns how many checkpoints this process has written.
func (s *FileCheckpointSink) Taken() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taken
}

// Path returns the image path.
func (s *FileCheckpointSink) Path() string { return s.path }

// CheckpointVerifyReport is the result of an offline checkpoint integrity
// scan: frame-level verification (CRC, torn tail) plus structural
// verification (header, per-table row counts, end-frame totals) — what
// restore WOULD check, without loading anything.
type CheckpointVerifyReport struct {
	wal.FrameScan
	// Complete is true iff the image ends with a consistent end frame and no
	// trailing garbage: exactly the images restoreCheckpoint accepts.
	Complete bool
	// Info is the image's own description (watermark, cut timestamp, table
	// and row counts), valid when the header frame verified.
	Info CheckpointInfo
	// Detail explains a structural rejection ("" when Complete).
	Detail string
}

// VerifyCheckpoint walks a checkpoint image without restoring it. Unlike a
// log — whose torn tail is a meaningful crash cut — a checkpoint is only
// usable when Complete; anything else must be treated as absent.
func VerifyCheckpoint(r io.Reader) CheckpointVerifyReport {
	var rep CheckpointVerifyReport
	var (
		headerSeen, endSeen bool
		nTables             uint64
		tablesSeen          int64
		inTable             bool
		curTable            uint64
		curCols             int
		curCount, rows      int64
	)
	structural := func(format string, args ...any) error {
		rep.Detail = fmt.Sprintf(format, args...)
		return fmt.Errorf("%s", rep.Detail)
	}
	rep.FrameScan = wal.ScanFrames(r, func(payload []byte) error {
		if endSeen {
			return structural("frame after end frame")
		}
		if len(payload) == 0 {
			return structural("empty frame")
		}
		fp := &ckptParser{p: payload}
		tag := fp.byte()
		if !headerSeen && tag != frameHeader {
			return structural("image does not start with a header frame")
		}
		switch tag {
		case frameHeader:
			if headerSeen {
				return structural("duplicate header frame")
			}
			if string(fp.bytes(len(ckptMagic))) != ckptMagic {
				return structural("bad magic: not a checkpoint image")
			}
			if v := fp.uvarint(); !ckptVersionOK(v) {
				return structural("checkpoint version %d unsupported", v)
			}
			rep.Info.Time = fp.uvarint()
			rep.Info.LSN = fp.uvarint()
			nTables = fp.uvarint()
			if fp.err != nil {
				return structural("truncated header frame")
			}
			headerSeen = true
		case frameTable:
			if inTable {
				return structural("table frame inside an open table section")
			}
			curTable = fp.uvarint()
			fp.str() // name
			fp.uvarint()
			nCols := fp.uvarint()
			for i := uint64(0); i < nCols; i++ {
				fp.str()
				fp.byte()
			}
			nSec := fp.uvarint()
			for i := uint64(0); i < nSec; i++ {
				fp.uvarint()
			}
			nRanges := fp.uvarint()
			for i := uint64(0); i < nRanges; i++ {
				fp.byte()
				fp.uvarint()
				nc := fp.uvarint()
				for j := uint64(0); j < nc; j++ {
					fp.uvarint()
					fp.uvarint()
				}
			}
			if fp.err != nil {
				return structural("truncated table frame")
			}
			inTable, curCols, curCount = true, int(nCols), 0
			tablesSeen++
		case frameRowBatch:
			id := fp.uvarint()
			nRows := fp.uvarint()
			if fp.err != nil {
				return structural("truncated row batch frame")
			}
			if !inTable || id != curTable {
				return structural("row batch for table %d outside its section", id)
			}
			for i := uint64(0); i < nRows; i++ {
				tvals, off, err := wal.ParseTypedVals(fp.p, fp.off)
				if err != nil {
					return structural("row %d of batch unparseable", i)
				}
				fp.off = off
				if len(tvals) != curCols {
					return structural("row arity %d, table declares %d columns", len(tvals), curCols)
				}
			}
			curCount += int64(nRows)
			rows += int64(nRows)
		case framePageRange:
			id := fp.uvarint()
			fp.uvarint() // first RID
			fp.uvarint() // slot count
			nRows := fp.uvarint()
			nCols := fp.uvarint()
			if fp.err != nil {
				return structural("truncated page frame")
			}
			if !inTable || id != curTable {
				return structural("page frame for table %d outside its section", id)
			}
			if int(nCols) != curCols {
				return structural("page frame has %d columns, table declares %d", nCols, curCols)
			}
			for c := uint64(0); c <= nCols; c++ { // nCols column pages + starts
				fp.bytes(int(fp.uvarint()))
			}
			if fp.err != nil || fp.off != len(fp.p) {
				return structural("page frame payload malformed")
			}
			curCount += int64(nRows)
			rows += int64(nRows)
		case framePageRef:
			id := fp.uvarint()
			fp.uvarint() // first RID
			fp.uvarint() // slot count
			nRows := fp.uvarint()
			nCols := fp.uvarint()
			if fp.err != nil {
				return structural("truncated ref frame")
			}
			if !inTable || id != curTable {
				return structural("ref frame for table %d outside its section", id)
			}
			if int(nCols) != curCols {
				return structural("ref frame has %d columns, table declares %d", nCols, curCols)
			}
			// nCols column descriptors + starts; CRC-verification against the
			// spill file is restore's job (the file isn't at hand here).
			for c := uint64(0); c <= nCols; c++ {
				fp.spillDesc()
			}
			if fp.err != nil || fp.off != len(fp.p) {
				return structural("ref frame payload malformed")
			}
			curCount += int64(nRows)
			rows += int64(nRows)
		case frameTableEnd:
			id := fp.uvarint()
			want := fp.uvarint()
			if fp.err != nil {
				return structural("truncated table end frame")
			}
			if !inTable || id != curTable {
				return structural("table end for table %d outside its section", id)
			}
			if curCount != int64(want) {
				return structural("table %d holds %d rows, section declares %d", id, curCount, want)
			}
			inTable = false
		case frameEnd:
			want := fp.uvarint()
			if fp.err != nil {
				return structural("truncated end frame")
			}
			if inTable {
				return structural("end frame inside an open table section")
			}
			if rows != int64(want) {
				return structural("image holds %d rows, end frame declares %d", rows, want)
			}
			if tablesSeen != int64(nTables) {
				return structural("image holds %d tables, header declares %d", tablesSeen, nTables)
			}
			endSeen = true
		default:
			return structural("unknown frame tag %d", tag)
		}
		return nil
	})
	rep.Info.Tables = int(tablesSeen)
	rep.Info.Rows = rows
	rep.Complete = endSeen && rep.Reason == "clean-eof" && rep.ReadErr == nil
	if !rep.Complete && rep.Detail == "" {
		if !endSeen && rep.Reason == "clean-eof" {
			rep.Detail = "image ends before the end frame"
		} else {
			rep.Detail = "image torn or corrupt: " + rep.Reason
		}
	}
	return rep
}
