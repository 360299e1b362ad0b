package lstore

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRecoveryEquivalenceProperty drives random committed/aborted work over
// two tables with the WAL attached, then recovers the log into a fresh
// database and requires exact state equality with the survivor.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		var log bytes.Buffer
		db := Open(WithWAL(&log, nil))
		users, err := db.CreateTable("users", NewSchema("id",
			Column{Name: "id", Type: Int64},
			Column{Name: "name", Type: String},
			Column{Name: "score", Type: Int64},
		))
		if err != nil {
			t.Fatal(err)
		}
		orders, err := db.CreateTable("orders", NewSchema("id",
			Column{Name: "id", Type: Int64},
			Column{Name: "user", Type: Int64},
			Column{Name: "total", Type: Int64},
		))
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		names := []string{"ada", "bob", "cleo", "dan"}
		for op := 0; op < 400; op++ {
			tx := db.Begin(ReadCommitted)
			ok := true
			switch rng.Intn(5) {
			case 0, 1:
				key := rng.Int63n(50)
				err := users.Insert(tx, Row{
					"id": Int(key), "name": Str(names[rng.Intn(4)]), "score": Int(rng.Int63n(100)),
				})
				ok = err == nil
			case 2:
				key := rng.Int63n(50)
				err := users.Update(tx, key, Row{"score": Int(rng.Int63n(1000))})
				ok = err == nil
			case 3:
				key := rng.Int63n(200)
				err := orders.Insert(tx, Row{
					"id": Int(key), "user": Int(rng.Int63n(50)), "total": Int(rng.Int63n(500)),
				})
				ok = err == nil
			case 4:
				err := users.Delete(tx, rng.Int63n(50))
				ok = err == nil
			}
			// Randomly abort some otherwise-fine transactions too.
			if !ok || rng.Intn(10) == 0 {
				tx.Abort()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		users.Merge()
		db.Close()

		// Recover.
		db2 := Open()
		users2, _ := db2.CreateTable("users", NewSchema("id",
			Column{Name: "id", Type: Int64},
			Column{Name: "name", Type: String},
			Column{Name: "score", Type: Int64},
		))
		orders2, _ := db2.CreateTable("orders", NewSchema("id",
			Column{Name: "id", Type: Int64},
			Column{Name: "user", Type: Int64},
			Column{Name: "total", Type: Int64},
		))
		if _, err := Recover(db2, nil, bytes.NewReader(log.Bytes())); err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}

		// Compare row by row.
		compare := func(a, b *Table, cols []string) {
			t.Helper()
			tsA, tsB := a.db.Now(), b.db.Now()
			rowsA := map[int64]Row{}
			if err := a.Query().At(tsA).Select(cols...).Rows(func(rv *RowView) bool {
				rowsA[rv.Key()] = rv.Row()
				return true
			}); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := b.Query().At(tsB).Select(cols...).Rows(func(rv *RowView) bool {
				key, row := rv.Key(), rv.Row()
				n++
				ra, ok := rowsA[key]
				if !ok {
					t.Fatalf("seed %d: recovered extra key %d", seed, key)
				}
				for _, c := range cols {
					if !ra[c].Equal(row[c]) {
						t.Fatalf("seed %d: key %d col %s: %v != %v", seed, key, c, ra[c], row[c])
					}
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != len(rowsA) {
				t.Fatalf("seed %d: row count %d != %d", seed, n, len(rowsA))
			}
		}
		compare(users, users2, []string{"name", "score"})
		compare(orders, orders2, []string{"user", "total"})
		db2.Close()
	}
}

// TestRecoveryFromTornLog cuts the log mid-record: the intact committed
// prefix must recover, the torn tail must vanish silently.
func TestRecoveryFromTornLog(t *testing.T) {
	var log bytes.Buffer
	db := Open(WithWAL(&log, nil))
	tbl, _ := db.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "v", Type: Int64},
	))
	for i := int64(0); i < 10; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	data := log.Bytes()
	cut := len(data) - 7 // inside the final commit record
	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "v", Type: Int64},
	))
	if _, err := Recover(db2, nil, bytes.NewReader(data[:cut])); err != nil {
		t.Fatal(err)
	}
	_, rows, _ := tbl2.Sum(db2.Now(), "v")
	if rows != 9 {
		t.Fatalf("recovered %d rows from torn log, want 9 (last commit torn)", rows)
	}
}

// TestConcurrentPublicAPIWithWAL hammers the public API from several
// goroutines with the WAL attached, then verifies recovery reproduces the
// final sum exactly.
func TestConcurrentPublicAPIWithWAL(t *testing.T) {
	var log safeBuffer // buffer writes race across committers' flushes
	db := Open(WithWAL(&log, nil))
	tbl, _ := db.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "v", Type: Int64},
	), TableOptions{RangeSize: 1024, MergeBatch: 128})
	seedTx := db.Begin(ReadCommitted)
	for i := int64(0); i < 256; i++ {
		if err := tbl.Insert(seedTx, Row{"id": Int(i), "v": Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				key := int64(w*64 + rng.Intn(64)) // disjoint per worker
				tx := db.Begin(Serializable)
				row, ok, err := tbl.Get(tx, key, "v")
				if err != nil || !ok {
					tx.Abort()
					continue
				}
				if err := tbl.Update(tx, key, Row{"v": Int(row["v"].Int() + 1)}); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				committed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	sum, _, _ := tbl.Sum(db.Now(), "v")
	if sum != committed.Load() {
		t.Fatalf("live sum %d != committed %d", sum, committed.Load())
	}
	db.Close()

	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "v", Type: Int64},
	))
	if _, err := Recover(db2, nil, bytes.NewReader(log.Bytes())); err != nil {
		t.Fatal(err)
	}
	sum2, rows, _ := tbl2.Sum(db2.Now(), "v")
	if sum2 != sum || rows != 256 {
		t.Fatalf("recovered sum %d/%d, want %d/256", sum2, rows, sum)
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer (the logger flushes from
// multiple committers).
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestTwoTablesShareClock: snapshots cut consistently across tables of one
// database (single synchronized clock).
func TestTwoTablesShareClock(t *testing.T) {
	db := Open()
	defer db.Close()
	a, _ := db.CreateTable("a", NewSchema("id",
		Column{Name: "id", Type: Int64}, Column{Name: "v", Type: Int64}))
	bTbl, _ := db.CreateTable("b", NewSchema("id",
		Column{Name: "id", Type: Int64}, Column{Name: "v", Type: Int64}))
	// One transaction writes both tables; any snapshot sees both writes or
	// neither.
	tx := db.Begin(ReadCommitted)
	if err := a.Insert(tx, Row{"id": Int(1), "v": Int(10)}); err != nil {
		t.Fatal(err)
	}
	if err := bTbl.Insert(tx, Row{"id": Int(1), "v": Int(20)}); err != nil {
		t.Fatal(err)
	}
	before := db.Now()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := db.Now()

	_, okA, _ := a.GetAt(before, 1, "v")
	_, okB, _ := bTbl.GetAt(before, 1, "v")
	if okA || okB {
		t.Fatalf("pre-commit snapshot sees writes: a=%v b=%v", okA, okB)
	}
	ra, okA, _ := a.GetAt(after, 1, "v")
	rb, okB, _ := bTbl.GetAt(after, 1, "v")
	if !okA || !okB || ra["v"].Int() != 10 || rb["v"].Int() != 20 {
		t.Fatalf("post-commit snapshot: %v/%v %v/%v", ra, okA, rb, okB)
	}
}
