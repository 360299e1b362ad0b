package lstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lstore/internal/fault"
	"lstore/internal/wal"
)

func ckptSchema() Schema {
	return NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "name", Type: String},
		Column{Name: "v", Type: Int64},
	)
}

// tableState snapshots every live row of tbl as of ts.
func tableState(t *testing.T, tbl *Table, ts Timestamp) map[int64]Row {
	t.Helper()
	rows := map[int64]Row{}
	if err := tbl.Query().At(ts).Rows(func(rv *RowView) bool {
		rows[rv.Key()] = rv.Row()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func assertSameState(t *testing.T, want, got map[int64]Row, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for key, wrow := range want {
		grow, ok := got[key]
		if !ok {
			t.Fatalf("%s: key %d missing", label, key)
		}
		for col, wv := range wrow {
			if !wv.Equal(grow[col]) {
				t.Fatalf("%s: key %d col %s = %v, want %v", label, key, col, grow[col], wv)
			}
		}
	}
}

func mustCommit(t *testing.T, tx *Txn) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTailRestartReplaysOnlyTail pins the acceptance criterion:
// restart from checkpoint + log replays exactly the transactions whose
// commit record lies above the watermark — every redone record has
// LSN > watermark — and the result equals the crashed state.
func TestCheckpointTailRestartReplaysOnlyTail(t *testing.T) {
	var log bytes.Buffer
	db := Open(WithWAL(&log, nil))
	tbl, err := db.CreateTable("t", ckptSchema(), TableOptions{SecondaryIndexes: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-checkpoint history: 100 inserts (one txn) + 40 update txns.
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 100; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("n"), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := int64(0); i < 40; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i%100, Row{"v": Int(1000 + i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 100 || info.Tables != 1 || info.LSN == 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}

	// Tail: 15 update txns, 5 inserts, 3 deletes — 23 txns, 23 ops.
	tailTxns := 0
	for i := int64(0); i < 15; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"name": Str("tail"), "v": Int(-i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	for i := int64(200); i < 205; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	for i := int64(90); i < 93; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Delete(tx, i); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		tailTxns++
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	// Every record recovery will redo must live above the watermark.
	records, err := wal.ReadAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	redo := wal.CommittedTxns(records, info.LSN)
	if len(redo) != tailTxns {
		t.Fatalf("log tail holds %d committed txns above watermark, want %d", len(redo), tailTxns)
	}
	for _, g := range redo {
		for _, op := range g.Ops {
			if op.LSN <= info.LSN {
				t.Fatalf("redo op LSN %d at or below watermark %d", op.LSN, info.LSN)
			}
		}
	}

	db2 := Open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", ckptSchema(), TableOptions{SecondaryIndexes: []string{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Watermark != info.LSN {
		t.Fatalf("stats.Watermark = %d, want %d", stats.Watermark, info.LSN)
	}
	if stats.CheckpointRows != 100 {
		t.Fatalf("stats.CheckpointRows = %d, want 100", stats.CheckpointRows)
	}
	if stats.RedoneTxns != tailTxns || stats.RedoneOps != tailTxns {
		t.Fatalf("redone %d txns / %d ops, want %d/%d", stats.RedoneTxns, stats.RedoneOps, tailTxns, tailTxns)
	}
	if stats.SkippedTxns != 41 { // 1 insert txn + 40 update txns below watermark
		t.Fatalf("stats.SkippedTxns = %d, want 41", stats.SkippedTxns)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint+tail restart")

	// The secondary index survived the bulk-load path too.
	if !tbl2.store.HasSecondary(tbl2.schema.ColIndex("v")) {
		t.Fatal("secondary index on v lost by restore")
	}
	keys, err := tbl2.Query().At(db2.Now()).Where(Eq("v", Int(-3))).Keys()
	if err != nil || len(keys) != 1 || keys[0] != 3 {
		t.Fatalf("index probe after restore = %v, %v", keys, err)
	}
}

// TestRecoverContinuesSameLog: recover → write → crash → recover on the
// SAME log. Recovery logs nothing, so the second recovery reads the
// pre-crash history and the post-recovery transactions from one log and
// one image, with zero lost committed transactions.
func TestRecoverContinuesSameLog(t *testing.T) {
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			dev := media.open(t)
			db := Open(WithWAL(dev.inner, nil))
			tbl, _ := db.CreateTable("t", ckptSchema())
			tx := db.Begin(ReadCommitted)
			for i := int64(0); i < 20; i++ {
				if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("a"), "v": Int(i)}); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
			if _, err := db.CheckpointTo(dev.ckpt); err != nil {
				t.Fatal(err)
			}
			tx = db.Begin(ReadCommitted)
			if err := tbl.Update(tx, 7, Row{"v": Int(777)}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			db.Close() // crash 1

			db2, tbl2, stats := restartOn(t, dev)
			if stats.RedoneTxns != 1 || stats.CheckpointRows != 20 {
				t.Fatalf("first recovery: %+v", stats)
			}
			tx = db2.Begin(ReadCommitted)
			if err := tbl2.Insert(tx, Row{"id": Int(100), "name": Str("post"), "v": Int(1)}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			tx = db2.Begin(ReadCommitted)
			if err := tbl2.Delete(tx, 3); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			want := tableState(t, tbl2, db2.Now())
			db2.Close() // crash 2

			db3, tbl3, stats := restartOn(t, dev)
			defer db3.Close()
			if stats.RedoneTxns != 3 {
				t.Fatalf("second recovery redid %d txns, want 3 (one pre-crash, two post-recovery)", stats.RedoneTxns)
			}
			assertSameState(t, want, tableState(t, tbl3, db3.Now()), "recover->write->crash->recover")
		})
	}
}

// TestRecoverAppendsNothing: with a WAL attached, Recover writes no record
// to it — neither to the log it continues nor to a fresh one — and new
// records number above every LSN the image and the tail used.
func TestRecoverAppendsNothing(t *testing.T) {
	old := &WALBuffer{}
	db := Open(WithWAL(old, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	for i := int64(0); i < 8; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TruncateWAL(info.LSN); err != nil { // the log is now empty
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 2, Row{"v": Int(-2)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	lastLSN := db.WALInfo().LastLSN
	tail := old.Bytes()
	db.Close()

	for _, tc := range []struct {
		name string
		sink *WALBuffer
	}{{"same log", old}, {"fresh log", &WALBuffer{}}} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.sink.Len()
			db2 := Open(WithWAL(tc.sink, nil))
			defer db2.Close()
			if _, err := db2.CreateTable("t", ckptSchema()); err != nil {
				t.Fatal(err)
			}
			stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), bytes.NewReader(tail))
			if err != nil {
				t.Fatal(err)
			}
			if stats.RedoneTxns != 1 || stats.CheckpointRows != 8 {
				t.Fatalf("recovery: %+v", stats)
			}
			w := db2.WALInfo()
			if w.Appended != 0 || tc.sink.Len() != before {
				t.Fatalf("Recover appended %d records (%d -> %d bytes)", w.Appended, before, tc.sink.Len())
			}
			if w.LastLSN < lastLSN || w.FlushedLSN != w.LastLSN {
				t.Fatalf("after Recover LastLSN=%d FlushedLSN=%d, want both >= %d", w.LastLSN, w.FlushedLSN, lastLSN)
			}
			db2.Begin(ReadCommitted).Abort()
			if got := db2.WALInfo().LastLSN; got <= lastLSN {
				t.Fatalf("new record got LSN %d, not above the recovered %d", got, lastLSN)
			}
		})
	}
}

// TestRecoverDanglingTxnNoPhantom: a transaction that was open at the crash
// leaves begin and operation records, but no commit, in the retained log.
// New transactions after the restart must never reuse its ID — the next
// recovery groups records by ID, so a reused ID that commits would
// resurrect the dead transaction's operations.
func TestRecoverDanglingTxnNoPhantom(t *testing.T) {
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			dev := media.open(t)
			db := Open(WithWAL(dev.inner, nil))
			tbl, _ := db.CreateTable("t", ckptSchema())
			for i := int64(0); i < 10; i++ {
				tx := db.Begin(ReadCommitted)
				if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
			}
			dangling := db.Begin(ReadCommitted)
			if err := tbl.Update(dangling, 5, Row{"v": Int(555)}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Insert(dangling, Row{"id": Int(50), "v": Int(50)}); err != nil {
				t.Fatal(err)
			}
			// The round's truncation stops at the dangling begin record, so
			// the records stay in the log the restarts continue.
			if _, err := db.CheckpointTo(dev.ckpt); err != nil {
				t.Fatal(err)
			}
			db.Close() // crash 1, with the dangling transaction still open

			db2, tbl2, _ := restartOn(t, dev)
			// Walk the clock up to the dangling ID (an aborted read-only
			// transaction ticks it once), then commit writes: the first
			// would reuse the dead transaction's ID if recovery had not
			// moved the clock past every ID in the log.
			for db2.Now()+1 < dangling.BeginTime() {
				db2.Begin(ReadCommitted).Abort()
			}
			for i := int64(0); i < 10; i++ {
				tx := db2.Begin(ReadCommitted)
				if err := tbl2.Update(tx, i, Row{"v": Int(1000 + i)}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
			}
			want := tableState(t, tbl2, db2.Now())
			db2.Close() // crash 2

			db3, tbl3, _ := restartOn(t, dev)
			defer db3.Close()
			got := tableState(t, tbl3, db3.Now())
			if _, ok := got[50]; ok {
				t.Fatal("the dangling transaction's insert reappeared")
			}
			assertSameState(t, want, got, "second restart")
		})
	}
}

// TestTornTailReopenAppend: a crash leaves a torn frame at the end of the
// log. The restart cuts it before appending, so every commit made after
// the restart replays at the next one — appended behind the torn bytes,
// they would be unreadable. The first restart attempt dies at the cut
// point itself, leaving the torn tail in place for the second.
func TestTornTailReopenAppend(t *testing.T) {
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			defer fault.Reset()
			dev := media.open(t)
			db := Open(WithWAL(dev.inner, nil))
			tbl, _ := db.CreateTable("t", ckptSchema())
			for i := int64(0); i < 5; i++ {
				tx := db.Begin(ReadCommitted)
				if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
			}
			// A frame header promising 32 payload bytes, then 3 of them.
			if _, err := dev.inner.Write([]byte{32, 0, 0, 0, 9, 9, 9, 9, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			db.Close() // crash

			fault.Trip("wal.reopen.pre-cut", 1)
			if crash := fault.RunToCrash(func() { restartOn(t, dev) }); crash == nil {
				t.Fatal("restart did not pass the reopen cut point")
			}
			db2, tbl2, stats := restartOn(t, dev)
			if stats.RedoneTxns != 5 {
				t.Fatalf("first restart redid %d txns, want 5", stats.RedoneTxns)
			}
			for i := int64(5); i < 10; i++ {
				tx := db2.Begin(ReadCommitted)
				if err := tbl2.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, tx)
			}
			want := tableState(t, tbl2, db2.Now())
			db2.Close() // crash

			db3, tbl3, stats := restartOn(t, dev)
			defer db3.Close()
			if stats.RedoneTxns != 10 {
				t.Fatalf("second restart redid %d txns, want 10", stats.RedoneTxns)
			}
			assertSameState(t, want, tableState(t, tbl3, db3.Now()), "after torn tail, reopen and append")
		})
	}
}

// TestReopenCheckpointTruncateCrash: a truncation after a reopen must cut
// at a record boundary of the log as it is — retained records included —
// or the log left behind starts mid-record and replays nothing. An open
// transaction pins the cut, and the first record sizes after the reopen
// differ from the retained ones, so a cut that ignores the retained bytes
// cannot land on a boundary by accident.
func TestReopenCheckpointTruncateCrash(t *testing.T) {
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			put := func(db *DB, tbl *Table, tx *Txn, k int64, name string) {
				t.Helper()
				if tx == nil {
					tx = db.Begin(ReadCommitted)
					defer mustCommit(t, tx)
				}
				if err := tbl.Insert(tx, Row{"id": Int(k), "name": Str(name), "v": Int(k)}); err != nil {
					t.Fatal(err)
				}
			}
			dev := media.open(t)
			db := Open(WithWAL(dev.inner, nil))
			tbl, _ := db.CreateTable("t", ckptSchema())
			for i := int64(0); i < 10; i++ {
				put(db, tbl, nil, i, "r")
			}
			db.Close() // crash 1: no checkpoint, the whole history is in the log

			db2, tbl2, _ := restartOn(t, dev)
			put(db2, tbl2, nil, 10, "written after the reopen")
			open := db2.Begin(ReadCommitted)
			put(db2, tbl2, open, 11, "open across the checkpoint")
			put(db2, tbl2, nil, 12, "r")
			info, err := db2.CheckpointTo(dev.ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if w := db2.WALInfo(); w.TruncatedLSN == 0 || w.TruncatedLSN >= info.LSN {
				t.Fatalf("truncation not pinned below the open transaction: %+v (watermark %d)", w, info.LSN)
			}
			mustCommit(t, open)
			put(db2, tbl2, nil, 13, "r")
			want := tableState(t, tbl2, db2.Now())
			db2.Close() // crash 2

			if rep := wal.Verify(bytes.NewReader(dev.durableWAL(t))); rep.TornBytes != 0 || rep.FirstLSN <= 1 {
				t.Fatalf("truncated log is not a clean tail: first LSN %d, %d torn bytes (%s)", rep.FirstLSN, rep.TornBytes, rep.Reason)
			}
			db3, tbl3, _ := restartOn(t, dev)
			defer db3.Close()
			assertSameState(t, want, tableState(t, tbl3, db3.Now()), "reopen, commit, truncate, crash")
		})
	}
}

// TestWALTruncationAfterCheckpoint: truncating at the watermark shrinks the
// log, and checkpoint + retained tail still recovers the full state.
func TestWALTruncationAfterCheckpoint(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 50; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	for i := int64(0); i < 30; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"v": Int(100 + i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}

	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	before := sink.Len()
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual != info.LSN {
		t.Fatalf("truncated to %d, want watermark %d (no active txns)", actual, info.LSN)
	}
	if sink.Len() >= before {
		t.Fatalf("log did not shrink: %d -> %d bytes", before, sink.Len())
	}

	// Tail after truncation.
	for i := int64(0); i < 10; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i, Row{"name": Str("x")}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if stats.RedoneTxns != 10 {
		t.Fatalf("redone %d txns from retained tail, want 10", stats.RedoneTxns)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint+truncated tail")
}

// TestTruncationRespectsActiveTxns: the safe truncation point stops below
// the begin LSN of a still-open transaction, so its operation records
// survive truncation and its later commit replays completely.
func TestTruncationRespectsActiveTxns(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Open transaction B with an operation already logged...
	txB := db.Begin(ReadCommitted)
	if err := tbl.Insert(txB, Row{"id": Int(100), "v": Int(100)}); err != nil {
		t.Fatal(err)
	}
	// ...then another committed transaction and a checkpoint.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(11), "v": Int(11)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual >= info.LSN {
		t.Fatalf("truncation watermark %d not bounded below open txn (checkpoint LSN %d)", actual, info.LSN)
	}
	// B commits after the checkpoint: above the watermark, ops retained.
	mustCommit(t, txB)
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader()); err != nil {
		t.Fatal(err)
	}
	got := tableState(t, tbl2, db2.Now())
	if _, ok := got[100]; !ok {
		t.Fatal("straddling transaction's insert lost after truncation+recovery")
	}
	assertSameState(t, want, got, "truncation with active txn")
}

// TestTruncationRespectsCommittedStraddlers pins the subtler truncation
// bound: transaction T appends its operations BELOW the checkpoint
// watermark but its commit record lands ABOVE it (so T is in the log tail,
// not the image). If T has already committed when truncation runs, T is no
// longer active — but truncating at the watermark would still drop its
// operation records while its commit record survives, replaying T as an
// empty transaction. The safe point must stay below T's begin LSN until a
// truncation covers T's commit record.
func TestTruncationRespectsCommittedStraddlers(t *testing.T) {
	sink := &wal.BufferSink{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// T's operations are logged before the checkpoint cut...
	txT := db.Begin(ReadCommitted)
	if err := tbl.Insert(txT, Row{"id": Int(500), "v": Int(500)}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// ...and T COMMITS (commit LSN > watermark) before truncation runs.
	mustCommit(t, txT)
	actual, err := db.TruncateWAL(info.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual >= info.LSN {
		t.Fatalf("truncated to %d; must stay below the committed straddler's begin (watermark %d)", actual, info.LSN)
	}
	want := tableState(t, tbl, db.Now())
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), sink.Reader()); err != nil {
		t.Fatal(err)
	}
	got := tableState(t, tbl2, db2.Now())
	if _, ok := got[500]; !ok {
		t.Fatal("committed straddler's insert lost: truncation dropped its op records")
	}
	assertSameState(t, want, got, "committed straddler")

	// A later checkpoint whose watermark covers T's commit record finally
	// lets truncation advance past T (the entry is pruned, not leaked).
	sink3 := &wal.BufferSink{}
	db3 := Open(WithWAL(sink3, nil))
	defer db3.Close()
	tbl3, _ := db3.CreateTable("t", ckptSchema())
	txS := db3.Begin(ReadCommitted)
	if err := tbl3.Insert(txS, Row{"id": Int(1), "v": Int(1)}); err != nil {
		t.Fatal(err)
	}
	var ck1 bytes.Buffer
	if _, err := db3.Checkpoint(&ck1); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, txS) // straddles ck1
	var ck2 bytes.Buffer
	info2, err := db3.Checkpoint(&ck2) // covers txS entirely
	if err != nil {
		t.Fatal(err)
	}
	actual2, err := db3.TruncateWAL(info2.LSN)
	if err != nil {
		t.Fatal(err)
	}
	if actual2 != info2.LSN {
		t.Fatalf("covered straddler still pins truncation: %d < %d", actual2, info2.LSN)
	}
}

// TestBackgroundCheckpointer: StartCheckpointer keeps fresh checkpoints
// flowing into the sink and truncates the log; latest checkpoint + retained
// log recovers the final state.
func TestBackgroundCheckpointer(t *testing.T) {
	sink := &wal.BufferSink{}
	cb := &CheckpointBuffer{}
	db := Open(WithWAL(sink, nil))
	tbl, _ := db.CreateTable("t", ckptSchema())
	if err := db.StartCheckpointer(time.Millisecond, cb); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 64; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	deadline := time.Now().Add(5 * time.Second)
	for i := int64(0); ; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Update(tx, i%64, Row{"v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
		// Rounds that land before the bulk insert commits cover nothing and
		// truncate nothing, so wait for a round that did truncate, not just
		// for two rounds.
		if cb.Taken() >= 2 && db.WALInfo().TruncatedLSN != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never truncated in two rounds: taken=%d wal=%+v", cb.Taken(), db.WALInfo())
		}
	}
	want := tableState(t, tbl, db.Now())
	db.Close() // stops the checkpointer before we snapshot the log

	img, info, ok := cb.Latest()
	if !ok {
		t.Fatal("no checkpoint retained")
	}
	if info.LSN == 0 || db.WALInfo().TruncatedLSN == 0 {
		t.Fatalf("checkpointer did not truncate: info=%+v wal=%+v", info, db.WALInfo())
	}

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, img, sink.Reader()); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "background checkpoint + tail")
}

// TestCheckpointSchemaMismatchFailsRestore: restoring into a database whose
// re-created tables do not match the image errors out loudly.
func TestCheckpointSchemaMismatchFailsRestore(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "v": Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := Open()
	defer db2.Close()
	if _, err := db2.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "other", Type: Int64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), nil); err == nil {
		t.Fatal("schema mismatch not detected")
	}
}

// TestTornCheckpointFailsLoudly: unlike the log (whose torn tail is a clean
// crash cut), a torn checkpoint image must fail restore.
func TestTornCheckpointFailsLoudly(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 600; i++ { // multiple row-batch frames
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	var ckpt bytes.Buffer
	if _, err := db.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()

	data := ckpt.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) / 2, 20} {
		db2 := Open()
		if _, err := db2.CreateTable("t", ckptSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(db2, bytes.NewReader(data[:cut]), nil); err == nil {
			t.Fatalf("torn checkpoint (cut %d) restored without error", cut)
		}
		db2.Close()
	}
	// Corruption (bit flip mid-image) must also fail.
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0x40
	db2 := Open()
	defer db2.Close()
	if _, err := db2.CreateTable("t", ckptSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(mut), nil); !errors.Is(err, wal.ErrTornFrame) {
		// Corruption may also surface as a structural mismatch; any error is
		// acceptable, silence is not.
		if err == nil {
			t.Fatal("corrupt checkpoint restored without error")
		}
	}
}

// TestCheckpointWithoutWAL: a checkpoint of a WAL-less database restores on
// its own (watermark 0, no tail).
func TestCheckpointWithoutWAL(t *testing.T) {
	db := Open()
	tbl, _ := db.CreateTable("t", ckptSchema())
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("s"), "v": Int(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	want := tableState(t, tbl, db.Now())
	var ckpt bytes.Buffer
	info, err := db.Checkpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN != 0 {
		t.Fatalf("watermark %d without WAL", info.LSN)
	}
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	stats, err := Recover(db2, bytes.NewReader(ckpt.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointRows != 10 {
		t.Fatalf("restored %d rows, want 10", stats.CheckpointRows)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "checkpoint only")
}
