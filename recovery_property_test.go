package lstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// propertyLog abstracts the WAL device under the recovery property test so
// the file-backed sink is held to exactly the same properties as the
// in-memory reference.
type propertyLog struct {
	sink io.Writer
	size func() int    // durable bytes so far
	dump func() []byte // durable bytes, read back
}

func memPropertyLog(t *testing.T) propertyLog {
	var b bytes.Buffer
	return propertyLog{
		sink: &b,
		size: b.Len,
		dump: func() []byte { return append([]byte(nil), b.Bytes()...) },
	}
}

func filePropertyLog(t *testing.T) propertyLog {
	s, err := OpenWALFile(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return propertyLog{
		sink: s,
		size: func() int { return int(s.Len()) },
		dump: func() []byte {
			data, err := s.Retained()
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
	}
}

// TestCrashRecoveryCommitPrefixProperty is the crash-recovery property
// test: a random workload of logically concurrent transactions (several
// open at once, random aborts, inserts/updates/deletes over a small key
// space) runs against a WAL-attached database while an in-memory shadow
// map tracks the committed state after every commit. Then, for EVERY log
// prefix that ends at a commit boundary, recovery of that prefix must yield
// exactly the shadow state at that commit — committed transactions are
// atomic and durable, everything else vanishes. A torn cut inside a commit
// record must yield the state of the previous boundary. The property runs
// over both the in-memory and the file-backed sink.
func TestCrashRecoveryCommitPrefixProperty(t *testing.T) {
	t.Run("mem", func(t *testing.T) { crashRecoveryCommitPrefixProperty(t, memPropertyLog) })
	t.Run("file", func(t *testing.T) { crashRecoveryCommitPrefixProperty(t, filePropertyLog) })
}

func crashRecoveryCommitPrefixProperty(t *testing.T, newLog func(*testing.T) propertyLog) {
	names := []string{"ada", "bob", "cleo", "dan"}
	for _, seed := range []int64{3, 11, 2026} {
		rng := rand.New(rand.NewSource(seed))
		log := newLog(t)
		db := Open(WithWAL(log.sink, nil))
		tbl, err := db.CreateTable("t", ckptSchema())
		if err != nil {
			t.Fatal(err)
		}

		type openTxn struct {
			tx  *Txn
			ops []func(map[int64]Row) // shadow effects, applied at commit
		}
		var open []*openTxn
		shadow := map[int64]Row{}
		var snapshots []map[int64]Row // committed state after i-th commit
		var prefixes []int            // log length at the i-th commit boundary

		deepCopy := func(m map[int64]Row) map[int64]Row {
			out := make(map[int64]Row, len(m))
			for k, r := range m {
				cr := Row{}
				for c, v := range r {
					cr[c] = v
				}
				out[k] = cr
			}
			return out
		}
		abort := func(i int) {
			open[i].tx.Abort()
			open = append(open[:i], open[i+1:]...)
		}

		for step := 0; step < 500; step++ {
			switch {
			case len(open) == 0 || (len(open) < 4 && rng.Intn(4) == 0):
				open = append(open, &openTxn{tx: db.Begin(ReadCommitted)})
			case rng.Intn(8) == 0: // random abort
				abort(rng.Intn(len(open)))
			case rng.Intn(5) == 0: // commit
				i := rng.Intn(len(open))
				ot := open[i]
				if err := ot.tx.Commit(); err != nil {
					t.Fatalf("seed %d: read-committed commit failed: %v", seed, err)
				}
				open = append(open[:i], open[i+1:]...)
				for _, apply := range ot.ops {
					apply(shadow)
				}
				snapshots = append(snapshots, deepCopy(shadow))
				prefixes = append(prefixes, log.size())
			default: // one operation on a random open transaction
				i := rng.Intn(len(open))
				ot := open[i]
				key := rng.Int63n(32)
				var opErr error
				var apply func(map[int64]Row)
				switch rng.Intn(5) {
				case 0, 1:
					name := Value(Null())
					if rng.Intn(4) > 0 {
						name = Str(names[rng.Intn(len(names))])
					}
					v := rng.Int63n(1000)
					opErr = tbl.Insert(ot.tx, Row{"id": Int(key), "name": name, "v": Int(v)})
					apply = func(m map[int64]Row) {
						m[key] = Row{"id": Int(key), "name": name, "v": Int(v)}
					}
				case 2, 3:
					v := rng.Int63n(1000)
					set := Row{"v": Int(v)}
					if rng.Intn(3) == 0 {
						set["name"] = Str(names[rng.Intn(len(names))])
					}
					opErr = tbl.Update(ot.tx, key, set)
					apply = func(m map[int64]Row) {
						row := m[key]
						for c, val := range set {
							row[c] = val
						}
					}
				case 4:
					opErr = tbl.Delete(ot.tx, key)
					apply = func(m map[int64]Row) { delete(m, key) }
				}
				if opErr != nil {
					// Conflict/duplicate/not-found: abort the whole
					// transaction so the shadow stays trivially aligned.
					abort(i)
					continue
				}
				ot.ops = append(ot.ops, apply)
			}
		}
		// Crash: open transactions simply stop (no abort records needed).
		data := log.dump()
		if len(snapshots) < 20 {
			t.Fatalf("seed %d: only %d commits; workload too timid", seed, len(snapshots))
		}

		recoverPrefix := func(cut int) map[int64]Row {
			db2 := Open()
			defer db2.Close()
			tbl2, err := db2.CreateTable("t", ckptSchema())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(db2, nil, bytes.NewReader(data[:cut])); err != nil {
				t.Fatalf("seed %d: recover prefix %d: %v", seed, cut, err)
			}
			return tableState(t, tbl2, db2.Now())
		}

		for i, cut := range prefixes {
			got := recoverPrefix(cut)
			if len(got) != len(snapshots[i]) {
				t.Fatalf("seed %d: commit %d: %d rows, want %d", seed, i, len(got), len(snapshots[i]))
			}
			for key, wrow := range snapshots[i] {
				grow, ok := got[key]
				if !ok {
					t.Fatalf("seed %d: commit %d: key %d missing", seed, i, key)
				}
				for col, wv := range wrow {
					if !wv.Equal(grow[col]) {
						t.Fatalf("seed %d: commit %d: key %d col %s = %v, want %v",
							seed, i, key, col, grow[col], wv)
					}
				}
			}
		}

		// Torn tail mid-record: cutting inside the k-th commit record must
		// recover exactly the (k-1)-th committed state.
		k := 1 + rng.Intn(len(prefixes)-1)
		got := recoverPrefix(prefixes[k] - 3)
		want := snapshots[k-1]
		if len(got) != len(want) {
			t.Fatalf("seed %d: torn commit %d: %d rows, want %d", seed, k, len(got), len(want))
		}
		for key, wrow := range want {
			for col, wv := range wrow {
				if !wv.Equal(got[key][col]) {
					t.Fatalf("seed %d: torn commit %d: key %d col %s mismatch", seed, k, key, col)
				}
			}
		}
		db.Close()
	}
}

// blockableWriter fails every write while failing is set (a log device that
// dies mid-transaction and maybe comes back).
type blockableWriter struct {
	buf     bytes.Buffer
	failing bool
}

func (w *blockableWriter) Write(p []byte) (int, error) {
	if w.failing {
		return 0, errors.New("simulated log device failure")
	}
	return w.buf.Write(p)
}

// TestWALAppendFailureAtomicity pins satellite #1: when an OPERATION's log
// append fails (not the commit's), the operation error surfaces, the
// transaction is poisoned so Commit aborts it, no commit record is ever
// written, and replaying the log shows the transaction vanished atomically
// while earlier committed work survives.
func TestWALAppendFailureAtomicity(t *testing.T) {
	sink := &blockableWriter{}
	db := Open(WithWAL(sink, nil))
	defer db.Close()
	tbl, err := db.CreateTable("t", ckptSchema())
	if err != nil {
		t.Fatal(err)
	}
	// Transaction A commits durably before the device dies.
	txA := db.Begin(ReadCommitted)
	for i := int64(0); i < 3; i++ {
		if err := tbl.Insert(txA, Row{"id": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, txA)

	// Device dies. Transaction B writes one small record (buffered — cannot
	// fail) and one oversized record that must write through and fail.
	sink.failing = true
	txB := db.Begin(ReadCommitted)
	if err := tbl.Insert(txB, Row{"id": Int(10), "v": Int(10)}); err != nil {
		t.Fatal(err) // buffered append; no device contact yet
	}
	huge := strings.Repeat("x", 1<<17) // larger than the log's write buffer
	if err := tbl.Insert(txB, Row{"id": Int(11), "name": Str(huge), "v": Int(11)}); err == nil {
		t.Fatal("oversized insert's failed WAL append returned nil")
	}
	// The transaction is poisoned: Commit must abort it, not commit it.
	if err := txB.Commit(); err == nil {
		t.Fatal("poisoned transaction committed")
	}
	// Its in-memory effects vanished atomically.
	probe := db.Begin(ReadCommitted)
	if _, ok, _ := tbl.Get(probe, 10, "v"); ok {
		t.Fatal("aborted transaction's first insert still visible")
	}
	if _, ok, _ := tbl.Get(probe, 11, "v"); ok {
		t.Fatal("aborted transaction's second insert still visible")
	}
	probe.Abort()

	// The logger is poisoned (sticky): even after the device heals, later
	// commits refuse to claim durability rather than logging records that
	// can never be replayed past the torn prefix.
	sink.failing = false
	txC := db.Begin(ReadCommitted)
	if err := tbl.Insert(txC, Row{"id": Int(20), "v": Int(20)}); err == nil {
		t.Fatal("append on poisoned logger returned nil")
	}
	if err := txC.Commit(); err == nil {
		t.Fatal("commit on poisoned logger returned nil")
	}
	if db.WALInfo().Err == nil {
		t.Fatal("WALInfo does not report the sticky error")
	}

	// Replay: only transaction A exists; B vanished without a trace of a
	// commit record.
	db2 := Open()
	defer db2.Close()
	tbl2, _ := db2.CreateTable("t", ckptSchema())
	if _, err := Recover(db2, nil, bytes.NewReader(sink.buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sum, rows, _ := tbl2.Sum(db2.Now(), "v")
	if rows != 3 || sum != 0+1+2 {
		t.Fatalf("recovered %d rows sum %d, want 3 rows sum 3", rows, sum)
	}
}

// TestBeginAppendFailurePoisonsTxn: a begin record that the log rejects
// poisons the transaction — its Commit aborts instead of writing a commit
// record the analysis pass could trust.
func TestBeginAppendFailurePoisonsTxn(t *testing.T) {
	sink := &blockableWriter{}
	db := Open(WithWAL(sink, nil))
	defer db.Close()
	tbl, _ := db.CreateTable("t", ckptSchema())
	// Poison the logger with an oversized failing append first.
	sink.failing = true
	warm := db.Begin(ReadCommitted)
	huge := strings.Repeat("y", 1<<17)
	if err := tbl.Insert(warm, Row{"id": Int(1), "name": Str(huge), "v": Int(1)}); err == nil {
		t.Fatal("oversized append did not fail")
	}
	warm.Abort()
	sink.failing = false

	tx := db.Begin(ReadCommitted) // begin record append fails (sticky error)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit of txn whose begin record failed returned nil")
	}
}
