package lstore

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"lstore/internal/core"
	"lstore/internal/epoch"
	"lstore/internal/fault"
	"lstore/internal/txn"
	"lstore/internal/types"
	"lstore/internal/wal"
)

// Crash points on the commit and recovery paths (no-ops in production; the
// crash-torture suite trips them to prove every cut recovers cleanly).
var (
	cpCommitPreAppend  = fault.Register("db.commit.pre-append")
	cpCommitPostAppend = fault.Register("db.commit.post-append")
	cpRecoverPostRest  = fault.Register("recover.post-restore")
	cpRecoverPreRedo   = fault.Register("recover.pre-redo-txn")
)

// DB is a collection of tables sharing one transaction manager (one logical
// clock) and one epoch manager. All methods are safe for concurrent use.
type DB struct {
	tm *txn.Manager
	em *epoch.Manager

	mu     sync.RWMutex
	tables map[string]*Table // guarded by mu
	byID   []*Table          // guarded by mu
	logger *wal.Logger       // immutable after Open
	closed bool              // guarded by mu

	// commitMu gates the window between a transaction's in-memory commit
	// and its WAL commit record against Checkpoint's (timestamp, LSN) cut:
	// committers hold it shared across both steps, a checkpoint holds it
	// exclusively while capturing its read timestamp and log watermark, so
	// commit time <= checkpoint time iff commit LSN <= watermark — the
	// invariant that makes checkpoint + log-tail replay exactly-once.
	commitMu sync.RWMutex

	// txnLog tracks each logged transaction's begin and commit record LSNs
	// (commit 0 while active), maintained only when the WAL sink can
	// truncate. Truncation must never discard the operation records of a
	// transaction whose commit record survives above the truncation point:
	// neither a still-active transaction's, nor — the subtle case — one
	// whose operations landed below a checkpoint watermark but whose commit
	// record landed above it (it is in the log tail, not the image).
	// Entries are pruned once a truncation covers their commit record.
	activeMu sync.Mutex
	txnLog   map[uint64]txnLSNs // guarded by activeMu

	// ckptRoundMu serializes whole checkpoint rounds against Recover: a
	// checkpoint cut mid-restore would capture a half-loaded image, and its
	// truncation could drop log records the restore has not replayed yet.
	ckptRoundMu sync.Mutex

	// Background checkpointer (StartCheckpointer). ckptSink is written
	// before the checkpointer goroutine starts and immutable afterwards.
	ckptSink CheckpointSink
	ckptStop chan struct{} // guarded by mu; non-nil once the checkpointer ran
	ckptDone chan struct{} // guarded by mu
	ckptOnce sync.Once

	// noGroupCommit (WithoutGroupCommit) is applied to the logger once in
	// Open, after every option has run; immutable afterwards.
	noGroupCommit bool
}

// txnLSNs is one logged transaction's begin/commit record LSNs.
type txnLSNs struct{ begin, commit uint64 }

// Option configures Open.
type Option func(*DB)

// WithWAL attaches a redo-only write-ahead log: every committed
// transaction's operations become durable at its commit record (group
// commit). Replay a captured log with Recover. A sink that already holds a
// log (a reopened WALFile, a WALBuffer that outlived its database) is
// continued: its torn tail is cut and new records follow the retained
// ones. syncFn, if non-nil, runs at each flush (an fsync stand-in). A sink
// that implements wal.TruncatableSink (e.g. *wal.BufferSink) additionally
// enables log truncation at checkpoint watermarks (TruncateWAL, the
// background checkpointer) so the log stops growing without bound.
func WithWAL(sink io.Writer, syncFn func()) Option {
	return func(db *DB) { db.logger = wal.NewLogger(sink, syncFn) }
}

// WithoutGroupCommit makes every commit run its own WAL flush (and fsync)
// instead of batching concurrent committers onto one leader's flush. Group
// commit is on by default — one flush vouches for every commit record it
// covers, which is what makes an fsync-backed WALFile affordable under
// concurrent writers. This option exists for benchmarks measuring the
// batching against the flush-per-commit baseline, and for deployments that
// want strict one-commit-one-fsync behavior regardless of load.
func WithoutGroupCommit() Option {
	return func(db *DB) { db.noGroupCommit = true }
}

// TruncatableSink is a WAL sink that can discard a durable prefix — the
// capability TruncateWAL and the background checkpointer need. A
// file-backed implementation would delete sealed segment files below the
// watermark; WALBuffer is the ready-made in-memory implementation.
type TruncatableSink = wal.TruncatableSink

// WALBuffer is an in-memory, truncatable WAL sink (an alias for the wal
// package's BufferSink): pass one to WithWAL to get bounded-log behavior,
// read it back through Reader()/Bytes() for recovery.
type WALBuffer = wal.BufferSink

// ErrWALNotTruncatable is returned by TruncateWAL when the WAL sink cannot
// discard a prefix (it does not implement TruncatableSink).
var ErrWALNotTruncatable = wal.ErrNotTruncatable

// TruncateWAL discards the attached log's durable prefix up to lsn
// (typically a checkpoint's LSN watermark), bounded by the begin LSN of
// the oldest still-active transaction so no live transaction loses
// operation records. It returns the watermark actually used. The WAL sink
// must support prefix disposal (wal.ErrNotTruncatable otherwise).
func (db *DB) TruncateWAL(lsn uint64) (uint64, error) {
	if db.logger == nil {
		return 0, fmt.Errorf("lstore: no WAL attached")
	}
	safe := db.safeTruncationLSN(lsn)
	if err := db.logger.TruncateTo(safe); err != nil {
		return 0, err
	}
	db.pruneTxnLog(safe)
	return safe, nil
}

// WALInfo is a snapshot of the attached log's state (introspection).
type WALInfo struct {
	Attached     bool
	Appended     int    // records appended so far
	LastLSN      uint64 // highest LSN handed out by Append
	FlushedLSN   uint64 // highest durable LSN (LastLSN-FlushedLSN = flush lag)
	TruncatedLSN uint64 // highest LSN discarded by truncation (0 = none)
	Syncs        int    // flush count (group-commit effectiveness)
	GroupCommit  bool   // commits batch onto one leader's flush
	GroupBatches int    // commit batches flushed by a leader
	Err          error  // sticky poisoning error, nil while healthy
}

// WALInfo reports the attached log's state; the zero WALInfo when no WAL.
// The LSN counters come from one locked snapshot, so LastLSN-FlushedLSN
// (the flush-lag gauge admission control sheds on) never underflows from a
// flush landing between two separate reads.
func (db *DB) WALInfo() WALInfo {
	if db.logger == nil {
		return WALInfo{}
	}
	g := db.logger.Gauges()
	return WALInfo{
		Attached:     true,
		Appended:     g.Appended,
		LastLSN:      g.LastLSN,
		FlushedLSN:   g.FlushedLSN,
		TruncatedLSN: g.TruncatedLSN,
		Syncs:        g.Syncs,
		GroupCommit:  db.logger.GroupCommit(),
		GroupBatches: db.logger.GroupBatches(),
		Err:          g.Err,
	}
}

// FlushWAL forces every appended record durable (a drain step for servers
// shutting down; commits already flush themselves). No-op without a WAL.
func (db *DB) FlushWAL() error {
	if db.logger == nil {
		return nil
	}
	return db.logger.Flush()
}

// Open creates an empty in-memory database.
func Open(opts ...Option) *DB {
	db := &DB{
		tm:     txn.NewManager(),
		em:     epoch.NewManager(),
		tables: make(map[string]*Table),
		txnLog: make(map[uint64]txnLSNs),
	}
	for _, o := range opts {
		o(db)
	}
	if db.logger != nil && db.noGroupCommit {
		db.logger.SetGroupCommit(false)
	}
	return db
}

// Close stops the background checkpointer and every table's background
// merge worker.
func (db *DB) Close() {
	db.stopCheckpointer()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.closed = true
	for _, t := range db.tables {
		t.store.Close()
	}
}

func (db *DB) stopCheckpointer() {
	db.mu.Lock()
	stop, done := db.ckptStop, db.ckptDone
	db.mu.Unlock()
	if stop == nil {
		return
	}
	db.ckptOnce.Do(func() {
		close(stop)
		<-done
	})
}

// CreateTable creates a table with the given schema.
func (db *DB) CreateTable(name string, schema Schema, opts ...TableOptions) (*Table, error) {
	var o TableOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	cfg := core.Config{
		RangeSize:                 o.RangeSize,
		MergeBatch:                o.MergeBatch,
		CumulativeUpdates:         !o.DisableCumulativeUpdates,
		AutoMerge:                 !o.DisableAutoMerge,
		MergeColumnsIndependently: o.MergeColumnsIndependently,
		MergeWorkers:              o.MergeWorkers,
		ScanWorkers:               o.ScanWorkers,
		DisableCompression:        o.DisableCompression,
		DisableEncodedScan:        o.DisableEncodedScan,
		Spill:                     o.Spill,
		PoolBytes:                 o.PoolBytes,
		CheckpointSpillRefs:       o.CheckpointSpillRefs,
	}
	if o.RowLayout {
		cfg.Layout = core.RowLayout
	}
	for _, colName := range o.SecondaryIndexes {
		ci := schema.inner.ColIndex(colName)
		if ci < 0 {
			return nil, fmt.Errorf("lstore: secondary index on unknown column %q", colName)
		}
		cfg.SecondaryIndexColumns = append(cfg.SecondaryIndexColumns, ci)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, core.ErrClosed
	}
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("lstore: table %q exists", name)
	}
	store, err := core.NewStore(schema.inner, cfg, db.tm, db.em)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, name: name, id: uint64(len(db.byID)), store: store, schema: schema.inner}
	db.tables[name] = t
	db.byID = append(db.byID, t)
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns the table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Now returns the current logical time — a ready-made snapshot handle for
// Sum/Scan/GetAt.
func (db *DB) Now() Timestamp { return db.tm.Now() }

// Begin starts a transaction.
func (db *DB) Begin(level IsolationLevel) *Txn {
	t := db.tm.Begin(level)
	tx := &Txn{db: db, inner: t}
	if db.logger != nil {
		lsn, err := db.logger.Append(wal.Record{Kind: wal.KindBegin, TxnID: t.ID})
		if err != nil {
			// The log rejected the begin record (failing or poisoned
			// device): poison the transaction so Commit aborts it instead
			// of producing a commit record for operations the log never saw.
			tx.walErr = fmt.Errorf("lstore: WAL append failed: %w", err)
		} else {
			db.trackBegin(t.ID, lsn)
		}
	}
	return tx
}

// trackBegin records a transaction's begin-record LSN. Tracking only
// matters — and is only paid for — when the sink can truncate.
func (db *DB) trackBegin(id, lsn uint64) {
	if !db.logger.Truncatable() {
		return
	}
	db.activeMu.Lock()
	db.txnLog[id] = txnLSNs{begin: lsn}
	db.activeMu.Unlock()
}

// forgetTxn drops a transaction whose records can never replay (aborted,
// or its commit record failed to append).
func (db *DB) forgetTxn(id uint64) {
	if db.logger == nil {
		return
	}
	db.activeMu.Lock()
	delete(db.txnLog, id)
	db.activeMu.Unlock()
}

// noteCommitLSN records a committed transaction's commit-record LSN. The
// entry must survive until a truncation covers the commit record — see
// safeTruncationLSN — and is pruned by TruncateWAL.
func (db *DB) noteCommitLSN(id, lsn uint64) {
	db.activeMu.Lock()
	if tl, ok := db.txnLog[id]; ok {
		tl.commit = lsn
		db.txnLog[id] = tl
	}
	db.activeMu.Unlock()
}

// safeTruncationLSN bounds a truncation point by the begin LSN of every
// transaction whose commit record is NOT covered by it: still-active
// transactions (their commit record would resurrect a partial transaction
// whose ops were truncated) and transactions already committed above the
// point (their commit record survives in the tail and must find its ops).
func (db *DB) safeTruncationLSN(lsn uint64) uint64 {
	db.activeMu.Lock()
	defer db.activeMu.Unlock()
	safe := lsn
	for _, tl := range db.txnLog {
		if tl.commit != 0 && tl.commit <= lsn {
			continue // every record of this txn is below the point
		}
		if tl.begin-1 < safe {
			safe = tl.begin - 1
		}
	}
	return safe
}

// pruneTxnLog forgets transactions whose records were all discarded by a
// truncation at safe.
func (db *DB) pruneTxnLog(safe uint64) {
	db.activeMu.Lock()
	for id, tl := range db.txnLog {
		if tl.commit != 0 && tl.commit <= safe {
			delete(db.txnLog, id)
		}
	}
	db.activeMu.Unlock()
}

// ErrDurabilityUnknown wraps a WAL failure at the commit point: the
// transaction IS committed in memory (its effects are visible to subsequent
// reads and cannot be rolled back — append-only storage has no undo), but the
// commit record may not have reached the log. After a crash, replaying the
// log may or may not include the transaction. Callers that cannot tolerate
// the ambiguity should treat the database as failed.
var ErrDurabilityUnknown = fmt.Errorf("lstore: transaction committed in memory but WAL commit failed; durability unknown")

// Txn is one transaction handle. A handle is not safe for concurrent use.
type Txn struct {
	db        *DB
	inner     *txn.Txn
	committed bool // in-memory commit point passed; Abort becomes a no-op
	// walErr poisons the transaction: some of its log records (begin or an
	// operation) failed to append, so a commit record must never follow —
	// replay would resurrect the transaction with operations missing.
	// Commit aborts a poisoned transaction instead.
	walErr error
}

// poisonWAL records a WAL append failure on the transaction and returns the
// error the caller should surface. The in-memory operation already applied
// (append-only storage has no in-place undo), but its log record did not;
// the poisoned transaction's Commit aborts, turning those in-memory effects
// into invisible tombstones — the transaction vanishes atomically.
func (t *Txn) poisonWAL(err error) error {
	if t.walErr == nil {
		t.walErr = fmt.Errorf("lstore: WAL append failed: %w", err)
	}
	return t.walErr
}

// Commit validates (per isolation level) and commits. On ErrConflict the
// transaction has been aborted and may be retried by the caller. An error
// wrapping ErrDurabilityUnknown means the in-memory commit succeeded but the
// WAL append failed at the commit record — the effects are visible and
// irrevocable, only their durability is in doubt. If an EARLIER append (the
// begin record or an operation record) had failed, Commit instead aborts
// the transaction and returns the original append error: a durable commit
// record must never vouch for operation records the log does not hold.
func (t *Txn) Commit() error {
	if t.walErr != nil && !t.committed {
		t.db.tm.Abort(t.inner)
		t.db.forgetTxn(t.inner.ID)
		return fmt.Errorf("lstore: transaction aborted, log incomplete: %w", t.walErr)
	}
	if t.db.logger == nil {
		err := t.db.tm.Commit(t.inner)
		if err == nil {
			t.committed = true
		}
		return err
	}
	t.db.commitMu.RLock()
	err := t.db.tm.Commit(t.inner)
	if err != nil {
		t.db.commitMu.RUnlock()
		// A Commit retried after passing the in-memory commit point (e.g.
		// after ErrDurabilityUnknown) fails validation here too; it must not
		// append an abort record that could contradict the commit record.
		if !t.committed {
			t.db.logger.Append(wal.Record{Kind: wal.KindAbort, TxnID: t.inner.ID}) //wal:ignore-err abort record is advisory; replay discards uncommitted txns without it
			t.db.forgetTxn(t.inner.ID)
		}
		return err
	}
	t.committed = true
	cpCommitPreAppend.Hit() // crash here: in-memory commit durable nowhere — recovery must drop it
	commitLSN, werr := t.db.logger.AppendCommit(t.inner.ID)
	t.db.commitMu.RUnlock()
	if werr != nil {
		// The commit record never became durable (and the logger is now
		// poisoned, so no truncation can run either): the entry is moot.
		t.db.forgetTxn(t.inner.ID)
		return fmt.Errorf("%w: %v", ErrDurabilityUnknown, werr)
	}
	cpCommitPostAppend.Hit() // crash here: commit durable but unacknowledged — recovery may keep it
	t.db.noteCommitLSN(t.inner.ID, commitLSN)
	return nil
}

// Abort rolls the transaction back (its appended versions become
// tombstones; nothing is physically removed). After a Commit that passed the
// in-memory commit point — including one that failed with
// ErrDurabilityUnknown — Abort is a no-op: in particular it must NOT append
// an abort record that could contradict an already-durable commit record on
// recovery.
func (t *Txn) Abort() {
	if t.committed {
		return
	}
	t.db.tm.Abort(t.inner)
	if t.db.logger != nil {
		t.db.logger.Append(wal.Record{Kind: wal.KindAbort, TxnID: t.inner.ID}) //wal:ignore-err abort record is advisory; replay discards uncommitted txns without it
		t.db.forgetTxn(t.inner.ID)
	}
}

// BeginTime returns the transaction's begin timestamp.
func (t *Txn) BeginTime() Timestamp { return t.inner.Begin }

// RecoverStats reports what one Recover call did.
type RecoverStats struct {
	// Watermark is the checkpoint's LSN watermark (0 without a checkpoint):
	// only transactions whose commit record has a larger LSN were redone.
	Watermark uint64
	// CheckpointRows counts rows restored through the bulk-load path.
	CheckpointRows int64
	// SkippedTxns counts committed transactions at or below the watermark —
	// already inside the checkpoint image, not replayed.
	SkippedTxns int
	// RedoneTxns/RedoneOps count the log-tail transactions re-applied and
	// their operation records.
	RedoneTxns int
	RedoneOps  int
}

// Recover rebuilds db from a checkpoint image (written by DB.Checkpoint,
// nil for none) and a redo-log tail captured through WithWAL (nil for
// none). The checkpoint restores every table's committed rows through the
// bulk-load fast path; the log tail then redoes, in commit order, exactly
// the committed transactions whose commit record has LSN greater than the
// checkpoint's watermark — uncommitted and aborted transactions vanish, and
// transactions the checkpoint already covers are skipped, so restart cost
// is bounded by checkpoint size plus log tail, not total history. Handing
// Recover the full log (instead of a truncated tail) is always safe: the
// watermark filter makes replay idempotent with respect to the checkpoint.
//
// Tables must have been re-created (same names, same order, same schemas)
// before calling Recover. The recovered state is logically equivalent:
// latest committed values, uniqueness and indexes are restored; version
// timestamps are RE-ISSUED, so pre-crash snapshot handles (Timestamps) are
// meaningless against the recovered database and the version history
// collapses to the recovered states themselves.
//
// Recovery logs nothing. If db was opened WithWAL, its log continues after
// every LSN the image and the tail used, and its transaction IDs after
// every ID in the tail, so a later recovery reads the same (image, log)
// pair as one sequence. Durability across the next crash therefore needs
// the SAME log the tail was read from: open the WAL over that log, then
// hand its bytes to Recover. A fresh WAL receives only new commits, and
// the recovered state stays durable only as long as the old image and log.
func Recover(db *DB, checkpoint io.Reader, logTail io.Reader) (RecoverStats, error) {
	var stats RecoverStats
	// Exclude whole background-checkpointer rounds for the duration: a
	// checkpoint cut mid-restore would capture a half-loaded image.
	db.ckptRoundMu.Lock()
	defer db.ckptRoundMu.Unlock()
	if checkpoint != nil {
		if err := db.restoreCheckpoint(checkpoint, &stats); err != nil {
			return stats, err
		}
	}
	cpRecoverPostRest.Hit() // crash here: double-crash between restore and tail redo
	lastLSN := stats.Watermark
	if logTail != nil {
		records, err := wal.ReadAll(logTail)
		if err != nil {
			return stats, err
		}
		for _, group := range wal.CommittedTxns(records, 0) {
			if group.CommitLSN <= stats.Watermark {
				stats.SkippedTxns++
				continue
			}
			if err := db.redoTxn(group, &stats); err != nil {
				return stats, err
			}
		}
		// Uncommitted records count too: a dangling transaction's ID must
		// never be handed out again, or the next recovery would merge its
		// operations into the new transaction that reused the ID.
		var lastBegin uint64
		for _, rec := range records {
			lastLSN = max(lastLSN, rec.LSN)
			lastBegin = max(lastBegin, rec.TxnID&^types.TxnIDFlag)
		}
		db.tm.AdvanceTo(lastBegin)
	}
	if db.logger != nil {
		db.logger.SkipTo(lastLSN)
	}
	return stats, nil
}

// redoTxn re-applies one committed transaction's operations under a fresh
// transaction, without logging them.
func (db *DB) redoTxn(group wal.TxnOps, stats *RecoverStats) error {
	cpRecoverPreRedo.Hit() // crash here: double-crash mid-replay
	tx := db.tm.Begin(txn.ReadCommitted)
	for _, rec := range group.Ops {
		db.mu.RLock()
		if rec.Table >= uint64(len(db.byID)) {
			db.mu.RUnlock()
			db.tm.Abort(tx)
			return fmt.Errorf("lstore: recovery references unknown table %d", rec.Table)
		}
		tbl := db.byID[rec.Table]
		db.mu.RUnlock()
		var opErr error
		switch rec.Kind {
		case wal.KindInsert:
			vals := make([]Value, len(rec.TVals))
			for i, tv := range rec.TVals {
				vals[i] = fromTyped(tv)
			}
			opErr = tbl.store.Insert(tx, vals)
		case wal.KindUpdate:
			cols := make([]int, len(rec.Cols))
			vals := make([]Value, len(rec.TVals))
			for i, c := range rec.Cols {
				cols[i] = int(c)
			}
			for i, tv := range rec.TVals {
				vals[i] = fromTyped(tv)
			}
			opErr = tbl.store.Update(tx, unzig(rec.Key), cols, vals)
		case wal.KindDelete:
			opErr = tbl.store.Delete(tx, unzig(rec.Key))
		}
		if opErr != nil {
			db.tm.Abort(tx)
			return fmt.Errorf("lstore: redo txn %d LSN %d: %w", group.TxnID, rec.LSN, opErr)
		}
	}
	if err := db.tm.Commit(tx); err != nil {
		return fmt.Errorf("lstore: redo txn %d: %w", group.TxnID, err)
	}
	stats.RedoneTxns++
	stats.RedoneOps += len(group.Ops)
	return nil
}

func fromTyped(tv wal.TypedVal) Value {
	switch tv.Kind {
	case wal.TVInt:
		return Int(tv.I)
	case wal.TVString:
		return Str(tv.S)
	default:
		return Null()
	}
}

// Key slots in log records are zigzag-coded int64 keys.
func zig(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
