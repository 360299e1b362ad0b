// Package wal implements L-Store's logging and recovery support (§5.1.3):
//
//   - a redo-only, append-only log. Base pages are read-only and tail pages
//     append-only and write-once, so no undo logging exists anywhere: an
//     aborted transaction's tail records simply become tombstones. The log
//     carries logical operations (insert/update/delete) plus transaction
//     begin/commit/abort markers.
//
//   - group commit: records accumulate in a buffer; Flush makes everything
//     up to the returned LSN durable. Committing transactions flush at the
//     commit record, amortizing syncs across concurrent committers.
//
//   - recovery: a two-pass reader (analysis: find committed transactions;
//     redo: replay their operations in log order). Operations of
//     transactions without a commit record are discarded — exactly the
//     "mark as tombstone, space reclaimed later" rule of the paper.
//     CommittedTxns additionally takes a checkpoint watermark: transactions
//     whose commit record has LSN at or below the watermark are already
//     reflected in the checkpoint image and are skipped, so restart cost is
//     bounded by checkpoint size plus log tail, not total history.
//
//   - torn-write poisoning: a write failure partway through a record leaves
//     a torn prefix in the buffer that would silently truncate every later
//     record on replay (replay stops at the first unverifiable frame). The
//     logger therefore goes sticky-failed on the first write or flush error:
//     every subsequent Append/Flush returns the poisoning error instead of
//     quietly logging records that can never be replayed.
//
//   - truncation: TruncateTo drops the durable prefix up to a checkpoint
//     watermark when the sink supports prefix disposal (TruncatableSink;
//     BufferSink is the in-memory implementation, a stand-in for deleting
//     sealed segment files). Callers must not truncate past the begin LSN of
//     any transaction that could still commit — the database layer computes
//     that safe point from its active-transaction table.
//
//   - reopen: a Logger attached to a sink that already holds a log (a file
//     reopened after a crash) continues it. It cuts the torn tail at the
//     last clean record, numbers new records after the retained ones, and
//     tracks the retained records' offsets so a later truncation drops
//     whole records only. Recovery redoes the log without logging anything.
//
// The Ownership-Relaying (OR) pageLSN protocol of §5.2 lives in or.go.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"lstore/internal/fault"
)

// Crash points on the append/flush/truncate paths: no-ops in production,
// tripped by the crash-torture tests to simulate a process kill at exactly
// these boundaries (see internal/fault).
var (
	cpAppendPreWrite   = fault.Register("wal.append.pre-write")
	cpAppendPostWrite  = fault.Register("wal.append.post-write")
	cpAppendPreFlush   = fault.Register("wal.append.pre-flush")
	cpFlushPreSync     = fault.Register("wal.flush.pre-sync")
	cpFlushPostSync    = fault.Register("wal.flush.post-sync")
	cpTruncatePreDrop  = fault.Register("wal.truncate.pre-drop")
	cpTruncatePostDrop = fault.Register("wal.truncate.post-drop")
	cpReopenPreCut     = fault.Register("wal.reopen.pre-cut")
)

// Kind tags a log record.
type Kind uint8

const (
	KindBegin Kind = iota + 1
	KindInsert
	KindUpdate
	KindDelete
	KindCommit
	KindAbort
	// KindMerge is operational logging only: the merge is idempotent
	// (§5.1.3), so recovery ignores it; it exists for observability and to
	// bound replay work in a full implementation.
	KindMerge
)

func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindMerge:
		return "merge"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one logical redo record. Low-level callers use slot-encoded
// Vals; the public API layer uses self-describing TVals so string
// dictionaries rebuild deterministically on replay.
type Record struct {
	LSN   uint64
	Kind  Kind
	TxnID uint64
	Table uint64     // table identifier (public layer)
	Key   uint64     // update/delete: primary key slot
	Cols  []uint32   // update: column indexes; insert: all columns implied
	Vals  []uint64   // insert: one per schema column; update: one per Cols
	TVals []TypedVal // typed payload (public layer)
}

// ErrNotTruncatable is returned by TruncateTo when the sink cannot discard
// a durable prefix (it does not implement TruncatableSink).
var ErrNotTruncatable = fmt.Errorf("wal: sink does not support truncation")

// lsnOffset records the cumulative byte offset at which one record ends,
// letting TruncateTo translate an LSN watermark into a sink byte count.
type lsnOffset struct {
	lsn uint64
	end int64
}

// Syncer is a sink with a real fsync: Sync must not return until every
// previously written byte is durable on the device. FileSink implements it
// with os.File.Sync; an in-memory BufferSink needs none (its writes are
// "durable" the moment they land).
type Syncer interface{ Sync() error }

// Logger is the append-only redo log with group commit.
type Logger struct {
	mu       sync.Mutex
	w        *bufio.Writer // guarded by mu
	sink     io.Writer     // immutable after NewLogger
	syncer   Syncer        // immutable after NewLogger; sink's fsync, if any
	nextLSN  uint64        // guarded by mu
	flushed  uint64        // guarded by mu; highest LSN guaranteed durable
	synced   func()        // immutable after NewLogger; optional fsync hook
	syncs    int           // guarded by mu
	appended int           // guarded by mu

	// err is the sticky poisoning error: once a record write or flush fails,
	// the buffer (or the sink) may hold a torn record prefix that would
	// silently end replay, so every later Append/Flush fails with this error
	// instead of appending records durability can never cover.
	// guarded by mu
	err error

	// Truncation bookkeeping (tracked only when the sink supports it).
	trackOffsets bool        // immutable after NewLogger
	written      int64       // guarded by mu; bytes retained at attach plus bytes handed to the buffered writer
	dropped      int64       // guarded by mu; bytes already discarded from the sink's front
	offsets      []lsnOffset // guarded by mu; end offsets of retained records, ascending
	truncated    uint64      // guarded by mu; highest LSN discarded by TruncateTo

	// Group-commit committer state (committer.go). gcMu is ordered BEFORE mu:
	// the leader coordinates through gcMu and reads flush state (which takes
	// mu) while holding it; mu is never held while acquiring gcMu.
	gcMu       sync.Mutex // committer coordination lock
	gcWake     *sync.Cond // on gcMu; signaled when a leader's flush completes
	gcFlushing bool       // guarded by gcMu; a batch leader's flush is in flight
	gcBatches  int        // guarded by gcMu; commit batches flushed by a leader
}

// NewLogger wraps sink (a file or buffer). syncFn, if non-nil, is invoked
// after every successful flush+sync (an fsync observer that tests count).
// A sink implementing Syncer gets a real fsync on every flush, with the
// fsyncgate rule: a failed Sync poisons the logger permanently (see
// flushLocked). The sink is additionally guarded against short writes — an
// io.Writer returning n < len(p) with a nil error would silently corrupt
// the LSN/offset bookkeeping, so the guard converts the lie into
// io.ErrShortWrite and the logger poisons itself like any torn write.
func NewLogger(sink io.Writer, syncFn func()) *Logger {
	_, truncatable := sink.(TruncatableSink)
	syncer, _ := sink.(Syncer)
	l := &Logger{
		w:            bufio.NewWriterSize(shortWriteGuard{sink}, 1<<16),
		sink:         sink,
		syncer:       syncer,
		nextLSN:      1,
		synced:       syncFn,
		trackOffsets: truncatable,
	}
	l.gcWake = sync.NewCond(&l.gcMu)
	if rs, ok := sink.(retainingSink); ok {
		l.resume(rs)
	}
	return l
}

// resume continues the log rs already holds: the retained records keep
// their LSNs and offsets, and the torn tail past the last record that
// ReadAll would replay is cut before anything new is appended — otherwise
// every new record would sit behind unreadable bytes. A failure poisons
// the logger.
func (l *Logger) resume(rs retainingSink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := rs.Retained()
	if err != nil {
		l.poison(fmt.Errorf("reopen: %w", err))
		return
	}
	if len(data) == 0 {
		return
	}
	var (
		end     int64
		last    uint64
		offsets []lsnOffset
	)
	scan := ScanFrames(bytes.NewReader(data), func(payload []byte) error {
		rec, err := parsePayload(payload)
		if err != nil {
			return err
		}
		end += frameHdrSize + int64(len(payload))
		last = max(last, rec.LSN)
		offsets = append(offsets, lsnOffset{lsn: rec.LSN, end: end})
		return nil
	})
	cpReopenPreCut.Hit() // crash here: log reopened, its torn tail (if any) still on disk
	if scan.CleanBytes < int64(len(data)) {
		if err := rs.cutTail(scan.CleanBytes); err != nil {
			l.poison(fmt.Errorf("reopen: cut torn tail: %w", err))
			return
		}
	}
	if l.trackOffsets {
		l.offsets = offsets
	}
	l.nextLSN = max(l.nextLSN, last+1)
	l.written = scan.CleanBytes
	l.flushed = l.nextLSN - 1
}

// SkipTo makes every later Append return an LSN above lsn. Recovery calls
// it with the highest LSN the checkpoint image and the replayed log used,
// so a continued log stays one increasing sequence even after truncation
// emptied it. With nothing buffered, the skipped LSNs also count as
// flushed: none of them names a record that could still be lost.
func (l *Logger) SkipTo(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.nextLSN {
		return
	}
	if l.flushed == l.nextLSN-1 {
		l.flushed = lsn
	}
	l.nextLSN = lsn + 1
}

// shortWriteGuard enforces the io.Writer contract on the sink: n < len(p)
// with a nil error is treated as a torn write (io.ErrShortWrite), never
// silently retried or absorbed into the buffered writer's accounting.
type shortWriteGuard struct{ w io.Writer }

func (g shortWriteGuard) Write(p []byte) (int, error) {
	n, err := g.w.Write(p)
	if err == nil && n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, err
}

// Append buffers rec and returns its LSN. It never blocks on I/O beyond the
// in-memory buffer (durability comes from Flush). A write failure poisons
// the logger: the buffer may hold a torn prefix of the record, so every
// subsequent Append/Flush returns the sticky error.
func (l *Logger) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	cpAppendPreWrite.Hit()
	n, err := writeRecord(l.w, &rec)
	if err != nil {
		l.poison(fmt.Errorf("append of LSN %d failed mid-record: %w", rec.LSN, err))
		return 0, err
	}
	l.written += int64(n)
	if l.trackOffsets {
		l.offsets = append(l.offsets, lsnOffset{lsn: rec.LSN, end: l.written})
	}
	l.appended++
	cpAppendPostWrite.Hit()
	return rec.LSN, nil
}

// AppendCommit appends a commit record and makes it durable — the
// group-commit point: every record buffered before it (from any
// transaction) becomes durable together. Concurrent callers batch onto one
// leader's flush (committer.go: one fsync vouches for the whole batch, a
// failed flush fails every waiter in it); a lone caller runs its own flush.
func (l *Logger) AppendCommit(txnID uint64) (uint64, error) {
	lsn, err := l.Append(Record{Kind: KindCommit, TxnID: txnID})
	if err != nil {
		return 0, err
	}
	cpAppendPreFlush.Hit() // the commit record is buffered but not yet durable
	return lsn, l.commitWait(lsn)
}

// Flush makes all appended records durable.
func (l *Logger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// flushLocked pushes the buffer to the sink and, when the sink has a real
// fsync, syncs it. A failed sync poisons the logger PERMANENTLY — the
// fsyncgate rule: after fsync reports an error, the kernel may have
// discarded the dirty pages while a retry would succeed trivially and
// "vouch" for bytes that never reached the device. Never retry-and-trust;
// the only honest continuation is a new log.
//
// locked: l.mu
func (l *Logger) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		l.poison(fmt.Errorf("flush failed: %w", err))
		return err
	}
	if l.syncer != nil {
		cpFlushPreSync.Hit() // bytes at the device, not yet synced
		if err := l.syncer.Sync(); err != nil {
			l.poison(fmt.Errorf("fsync failed (never retry-and-trust a failed sync): %w", err))
			return err
		}
		cpFlushPostSync.Hit()
	}
	if l.synced != nil {
		l.synced()
	}
	l.syncs++
	l.flushed = l.nextLSN - 1
	return nil
}

// poison records the first write failure.
//
// locked: l.mu
func (l *Logger) poison(cause error) {
	if l.err == nil {
		l.err = fmt.Errorf("wal: log poisoned by earlier write failure (%v); later records could silently truncate on replay", cause)
	}
}

// Err returns the sticky poisoning error, or nil while the log is healthy.
func (l *Logger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// TruncateTo flushes and then discards every durable record with LSN at or
// below lsn. The sink must implement TruncatableSink (ErrNotTruncatable
// otherwise). Truncating at a checkpoint watermark is only safe above the
// begin LSN of every transaction that could still commit; the database layer
// owns that bound. Records above lsn are retained byte-exactly.
func (l *Logger) TruncateTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts, ok := l.sink.(TruncatableSink)
	if !ok {
		return ErrNotTruncatable
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	// Find the end offset of the newest retained record at or below lsn.
	idx := -1
	for i, o := range l.offsets {
		if o.lsn > lsn {
			break
		}
		idx = i
	}
	if idx < 0 {
		return nil // nothing at or below lsn retained (already truncated)
	}
	cut := l.offsets[idx]
	cpTruncatePreDrop.Hit()
	if err := ts.DropPrefix(cut.end - l.dropped); err != nil {
		return err
	}
	cpTruncatePostDrop.Hit()
	l.dropped = cut.end
	l.truncated = cut.lsn
	l.offsets = append(l.offsets[:0], l.offsets[idx+1:]...)
	return nil
}

// Truncatable reports whether the sink supports prefix truncation (the
// logger only pays for offset tracking when it does).
func (l *Logger) Truncatable() bool { return l.trackOffsets }

// TruncatedLSN returns the highest LSN discarded by TruncateTo (0 = none).
func (l *Logger) TruncatedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// FlushedLSN returns the highest durable LSN.
func (l *Logger) FlushedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Gauges is one consistent reading of the logger's mu-guarded counters.
// The single-acquisition snapshot matters for derived gauges: computing
// LastLSN-FlushedLSN from two separate reads lets a flush land in between,
// making FlushedLSN exceed the already-read LastLSN and the unsigned
// subtraction underflow.
type Gauges struct {
	Appended     int
	LastLSN      uint64
	FlushedLSN   uint64
	TruncatedLSN uint64
	Syncs        int
	Err          error
}

// Gauges snapshots every mu-guarded counter under one lock acquisition, so
// derived values (flush lag) are computed from a consistent pair.
func (l *Logger) Gauges() Gauges {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Gauges{
		Appended:     l.appended,
		LastLSN:      l.nextLSN - 1,
		FlushedLSN:   l.flushed,
		TruncatedLSN: l.truncated,
		Syncs:        l.syncs,
		Err:          l.err,
	}
}

// LastLSN returns the highest LSN handed out by Append. LastLSN minus
// FlushedLSN is the flush lag — records buffered but not yet durable, the
// WAL-side backpressure gauge a serving layer sheds load on.
func (l *Logger) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Syncs returns how many flushes have run (group-commit effectiveness).
func (l *Logger) Syncs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Appended returns the number of records appended.
func (l *Logger) Appended() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// ---------------------------------------------------------------------------
// Binary format: one CRC frame per record (frame.go). Payload: lsn, kind,
// txnid, key, cols, vals (varints). A torn tail (partial final record)
// terminates replay cleanly.

func writeRecord(w io.Writer, rec *Record) (int, error) {
	var payload []byte
	payload = binary.AppendUvarint(payload, rec.LSN)
	payload = append(payload, byte(rec.Kind))
	payload = binary.AppendUvarint(payload, rec.TxnID)
	payload = binary.AppendUvarint(payload, rec.Table)
	payload = binary.AppendUvarint(payload, rec.Key)
	payload = binary.AppendUvarint(payload, uint64(len(rec.Cols)))
	for _, c := range rec.Cols {
		payload = binary.AppendUvarint(payload, uint64(c))
	}
	payload = binary.AppendUvarint(payload, uint64(len(rec.Vals)))
	for _, v := range rec.Vals {
		payload = binary.AppendUvarint(payload, v)
	}
	payload = AppendTypedVals(payload, rec.TVals)
	if err := WriteFrame(w, payload); err != nil {
		return 0, err
	}
	return frameHdrSize + len(payload), nil
}

// ReadAll parses records from r until EOF or a torn/corrupt tail, which ends
// the stream without error (standard recovery semantics). A corrupt record
// in the middle still just ends the stream — everything after an
// unverifiable record is untrustworthy. Genuine reader failures (a dying
// device, not a short stream) are returned.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var out []Record
	for {
		payload, err := ReadFrame(br)
		switch {
		case err == io.EOF:
			return out, nil
		case errors.Is(err, ErrTornFrame):
			return out, nil // torn or corrupt tail: the crash cut
		case err != nil:
			return out, err
		}
		rec, perr := parsePayload(payload)
		if perr != nil {
			return out, nil
		}
		out = append(out, rec)
	}
}

func parsePayload(p []byte) (Record, error) {
	var rec Record
	var off int
	read := func() (uint64, error) {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return 0, fmt.Errorf("wal: truncated varint")
		}
		off += n
		return v, nil
	}
	lsn, err := read()
	if err != nil {
		return rec, err
	}
	rec.LSN = lsn
	if off >= len(p) {
		return rec, fmt.Errorf("wal: missing kind")
	}
	rec.Kind = Kind(p[off])
	off++
	if rec.TxnID, err = read(); err != nil {
		return rec, err
	}
	if rec.Table, err = read(); err != nil {
		return rec, err
	}
	if rec.Key, err = read(); err != nil {
		return rec, err
	}
	nc, err := read()
	if err != nil {
		return rec, err
	}
	for i := uint64(0); i < nc; i++ {
		c, err := read()
		if err != nil {
			return rec, err
		}
		rec.Cols = append(rec.Cols, uint32(c))
	}
	nv, err := read()
	if err != nil {
		return rec, err
	}
	for i := uint64(0); i < nv; i++ {
		v, err := read()
		if err != nil {
			return rec, err
		}
		rec.Vals = append(rec.Vals, v)
	}
	tvals, noff, err := ParseTypedVals(p, off)
	if err != nil {
		return rec, err
	}
	off = noff
	rec.TVals = tvals
	return rec, nil
}

// ---------------------------------------------------------------------------
// Recovery

// Analyze returns the set of transaction IDs with a durable commit record.
func Analyze(records []Record) map[uint64]bool {
	committed := make(map[uint64]bool)
	for i := range records {
		if records[i].Kind == KindCommit {
			committed[records[i].TxnID] = true
		}
	}
	return committed
}

// Redo streams the operations of committed transactions, in log order, to
// apply. Records of uncommitted or aborted transactions are skipped
// (append-only storage means they need no undo — they were never visible).
func Redo(records []Record, apply func(Record) error) error {
	committed := Analyze(records)
	for i := range records {
		rec := &records[i]
		switch rec.Kind {
		case KindInsert, KindUpdate, KindDelete:
			if committed[rec.TxnID] {
				if err := apply(*rec); err != nil {
					return fmt.Errorf("wal: redo LSN %d: %w", rec.LSN, err)
				}
			}
		}
	}
	return nil
}
