package lstore

import (
	"bytes"
	"errors"
	"testing"
)

func accountsSchema() Schema {
	return NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "owner", Type: String},
		Column{Name: "balance", Type: Int64},
		Column{Name: "region", Type: Int64},
	)
}

func openWithTable(t *testing.T, opts ...TableOptions) (*DB, *Table) {
	t.Helper()
	db := Open()
	t.Cleanup(db.Close)
	tbl, err := db.CreateTable("accounts", accountsSchema(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestPublicAPICRUD(t *testing.T) {
	db, tbl := openWithTable(t)
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "owner": Str("ada"), "balance": Int(100), "region": Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(tx, Row{"id": Int(2), "owner": Str("bob"), "balance": Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = db.Begin(ReadCommitted)
	row, ok, err := tbl.Get(tx, 1)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if row["owner"].Str() != "ada" || row["balance"].Int() != 100 {
		t.Fatalf("row = %v", row)
	}
	// Omitted column was null.
	row2, _, _ := tbl.Get(tx, 2, "region")
	if !row2["region"].IsNull() {
		t.Fatalf("region should be null: %v", row2)
	}
	tx.Abort()

	// Update + Delete.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 1, Row{"balance": Int(90), "owner": Str("ada lovelace")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin(ReadCommitted)
	row, _, _ = tbl.Get(tx, 1, "owner", "balance")
	if row["owner"].Str() != "ada lovelace" || row["balance"].Int() != 90 {
		t.Fatalf("after update: %v", row)
	}
	if _, ok, _ := tbl.Get(tx, 2); ok {
		t.Fatal("deleted row visible")
	}
	tx.Abort()
}

func TestPublicAPIErrors(t *testing.T) {
	db, tbl := openWithTable(t)
	tx := db.Begin(ReadCommitted)
	defer tx.Abort()
	if err := tbl.Insert(tx, Row{"nope": Int(1)}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := tbl.Update(tx, 1, Row{"balance": Int(1)}); err != ErrNotFound {
		t.Fatalf("update missing: %v", err)
	}
	if _, _, err := tbl.Get(tx, 1, "nope"); err == nil {
		t.Fatal("unknown get column accepted")
	}
	if _, _, err := tbl.Sum(db.Now(), "owner"); err == nil {
		t.Fatal("sum over string accepted")
	}
	if _, err := db.CreateTable("accounts", accountsSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, ok := db.Table("accounts"); !ok {
		t.Fatal("table lookup failed")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "accounts" {
		t.Fatalf("names = %v", got)
	}
}

func TestSumScanAndTimeTravel(t *testing.T) {
	db, tbl := openWithTable(t)
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "balance": Int(i * 10), "owner": Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	then := db.Now()
	sum, rows, err := tbl.Sum(then, "balance")
	if err != nil || sum != 450 || rows != 10 {
		t.Fatalf("sum = %d/%d %v", sum, rows, err)
	}
	// Mutate and check both snapshots.
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 3, Row{"balance": Int(1000)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sum, _, _ = tbl.Sum(db.Now(), "balance")
	if sum != 450-30+1000 {
		t.Fatalf("new sum = %d", sum)
	}
	sum, _, _ = tbl.Sum(then, "balance")
	if sum != 450 {
		t.Fatalf("old snapshot sum = %d", sum)
	}
	old, ok, _ := tbl.GetAt(then, 3, "balance")
	if !ok || old["balance"].Int() != 30 {
		t.Fatalf("GetAt = %v %v", old, ok)
	}
	// Scan with callback.
	seen := 0
	err = tbl.Query().Select("balance").Rows(func(rv *RowView) bool {
		seen++
		return true
	})
	if err != nil || seen != 10 {
		t.Fatalf("scan visited %d, err %v", seen, err)
	}
}

func TestSecondaryIndexAPI(t *testing.T) {
	db, tbl := openWithTable(t, TableOptions{SecondaryIndexes: []string{"region"}})
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 6; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "region": Int(i % 2), "balance": Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tbl.store.HasSecondary(tbl.schema.ColIndex("region")) {
		t.Fatal("SecondaryIndexes did not build the region index")
	}
	keys, err := tbl.Query().Where(Eq("region", Int(1))).Keys()
	if err != nil || len(keys) != 3 {
		t.Fatalf("index probe = %v %v", keys, err)
	}
	// Without an index the same predicate plans as a filtered scan.
	keys, err = tbl.Query().Where(Eq("balance", Int(1))).Keys()
	if err != nil || len(keys) != 6 {
		t.Fatalf("unindexed Eq = %v %v", keys, err)
	}
}

func TestConflictSurfacesAndRetryWorks(t *testing.T) {
	db, tbl := openWithTable(t)
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "balance": Int(0)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Begin(ReadCommitted)
	t2 := db.Begin(ReadCommitted)
	if err := tbl.Update(t1, 1, Row{"balance": Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(t2, 1, Row{"balance": Int(2)}); err != ErrConflict {
		t.Fatalf("conflict err = %v", err)
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Retry succeeds.
	t3 := db.Begin(ReadCommitted)
	if err := tbl.Update(t3, 1, Row{"balance": Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAndCompressThroughAPI(t *testing.T) {
	db, tbl := openWithTable(t, TableOptions{RangeSize: 64, MergeBatch: 8, DisableAutoMerge: true})
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 64; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "balance": Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		tx := db.Begin(ReadCommitted)
		for i := int64(0); i < 8; i++ {
			if err := tbl.Update(tx, i, Row{"balance": Int(int64(r + 2))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.Merge(); n == 0 {
		t.Fatal("merge consumed nothing")
	}
	if tbl.Stats().Merges == 0 {
		t.Fatal("stats missing merges")
	}
	sum, _, _ := tbl.Sum(db.Now(), "balance")
	if sum != 56+8*5 {
		t.Fatalf("sum after merges = %d", sum)
	}
	tbl.CompressHistory()
}

// failingWriter errors on every Write: the WAL's buffered appends succeed
// but the commit-point flush fails.
type failingWriter struct{ writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("simulated log device failure")
}

// TestWALCommitFailureContract pins the Txn.Commit durability contract: when
// the WAL fails at the commit point, the error wraps ErrDurabilityUnknown,
// the transaction's effects remain visible (the in-memory commit is
// irrevocable), and a subsequent Abort appends no abort record that could
// contradict a durable commit record on recovery.
func TestWALCommitFailureContract(t *testing.T) {
	db := Open(WithWAL(&failingWriter{}, nil))
	defer db.Close()
	tbl, err := db.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "owner": Str("a"), "balance": Int(10)}); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrDurabilityUnknown) {
		t.Fatalf("Commit error = %v, want ErrDurabilityUnknown", err)
	}
	// The commit happened in memory: effects are visible to later readers.
	tx2 := db.Begin(ReadCommitted)
	defer tx2.Abort()
	row, ok, err := tbl.Get(tx2, 1, "balance")
	if err != nil || !ok || row["balance"].Int() != 10 {
		t.Fatalf("committed row not visible after WAL failure: %v %v %v", row, ok, err)
	}
	// Abort after the failed-durability commit must be a no-op.
	before := db.logger.Appended()
	tx.Abort()
	if got := db.logger.Appended(); got != before {
		t.Fatalf("Abort after commit appended %d log records", got-before)
	}
	// A retried Commit fails (already committed) but must not append an
	// abort record either — recovery could see both a commit and an abort
	// for the same transaction.
	if err := tx.Commit(); err == nil {
		t.Fatal("retried Commit unexpectedly succeeded")
	}
	if got := db.logger.Appended(); got != before {
		t.Fatalf("retried Commit appended %d log records", got-before)
	}
}

func TestWALRecovery(t *testing.T) {
	var log bytes.Buffer
	db := Open(WithWAL(&log, nil))
	tbl, err := db.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Committed work.
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 5; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "owner": Str("o"), "balance": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin(ReadCommitted)
	if err := tbl.Update(tx, 2, Row{"balance": Int(222), "owner": Str("zoe")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx, 4); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted work that must vanish.
	lost := db.Begin(ReadCommitted)
	if err := tbl.Insert(lost, Row{"id": Int(99), "balance": Int(9999)}); err != nil {
		t.Fatal(err)
	}
	// (no commit — crash)
	db.Close()

	// Recover into a fresh database.
	db2 := Open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, nil, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	tx2 := db2.Begin(ReadCommitted)
	defer tx2.Abort()
	row, ok, _ := tbl2.Get(tx2, 2)
	if !ok || row["balance"].Int() != 222 || row["owner"].Str() != "zoe" {
		t.Fatalf("recovered row 2 = %v %v", row, ok)
	}
	if _, ok, _ := tbl2.Get(tx2, 4); ok {
		t.Fatal("deleted row resurrected")
	}
	if _, ok, _ := tbl2.Get(tx2, 99); ok {
		t.Fatal("uncommitted insert recovered")
	}
	sum, rows, _ := tbl2.Sum(db2.Now(), "balance")
	if rows != 4 || sum != 0+1+222+3 {
		t.Fatalf("recovered sum = %d/%d", sum, rows)
	}
}

func TestWALGroupCommitAcrossTxns(t *testing.T) {
	var log bytes.Buffer
	syncs := 0
	db := Open(WithWAL(&log, func() { syncs++ }))
	defer db.Close()
	tbl, _ := db.CreateTable("accounts", accountsSchema())
	for i := int64(0); i < 3; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "balance": Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 3 {
		t.Fatalf("syncs = %d, want 3 (one per commit)", syncs)
	}
}

func TestRowLayoutOptionThroughAPI(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("rows", accountsSchema(), TableOptions{RowLayout: true, RangeSize: 64, DisableAutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	for i := int64(0); i < 64; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "balance": Int(2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl.Merge()
	sum, rows, _ := tbl.Sum(db.Now(), "balance")
	if sum != 128 || rows != 64 {
		t.Fatalf("row layout sum = %d/%d", sum, rows)
	}
}
