package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lstore/internal/fault"
)

// gatedSink is an in-memory Syncer whose Sync blocks until the test
// releases it — deterministic control over when a batch flush completes.
type gatedSink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	entered chan struct{} // one send per Sync entry
	release chan struct{} // one receive completes a Sync
}

func newGatedSink() *gatedSink {
	return &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedSink) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func (g *gatedSink) Sync() error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}

// TestGroupCommitOneFlushWakesAllWaiters pins the committer's core claim
// deterministically: with nine commit records already appended, nine
// concurrent commitWait callers produce EXACTLY one flush — one caller
// becomes leader, its single fsync vouches for every record, and every
// waiter (and every late arrival, which finds itself already covered)
// returns nil without touching the device.
func TestGroupCommitOneFlushWakesAllWaiters(t *testing.T) {
	g := newGatedSink()
	l := NewLogger(g, nil)
	const n = 9
	lsns := make([]uint64, n)
	for i := 0; i < n; i++ {
		txn := uint64(i + 1)
		if _, err := l.Append(Record{Kind: KindBegin, TxnID: txn}); err != nil {
			t.Fatal(err)
		}
		lsn, err := l.Append(Record{Kind: KindCommit, TxnID: txn})
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(lsn uint64) { errs <- l.commitWait(lsn) }(lsns[i])
	}
	<-g.entered // exactly one leader reached the sync
	g.release <- struct{}{}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("commitWait: %v", err)
		}
	}
	if s := l.Syncs(); s != 1 {
		t.Fatalf("syncs = %d, want exactly 1 for the whole batch", s)
	}
	if b := l.GroupBatches(); b != 1 {
		t.Fatalf("batches = %d, want 1", b)
	}
	if got := l.FlushedLSN(); got < lsns[n-1] {
		t.Fatalf("flushed LSN %d does not cover last commit %d", got, lsns[n-1])
	}
}

// TestGroupCommitFailedBatchFlushFailsEveryWaiter: a batch whose one flush
// fails must fail EVERY waiter — no commit may be told "durable" on the
// strength of a flush that did not complete — and the logger stays
// poisoned for all later commits.
func TestGroupCommitFailedBatchFlushFailsEveryWaiter(t *testing.T) {
	sink := fault.NewSink(&bytes.Buffer{}, fault.FailSync(1))
	l := NewLogger(sink, nil)
	const n = 7
	lsns := make([]uint64, n)
	for i := 0; i < n; i++ {
		txn := uint64(i + 1)
		if _, err := l.Append(Record{Kind: KindBegin, TxnID: txn}); err != nil {
			t.Fatal(err)
		}
		lsn, err := l.Append(Record{Kind: KindCommit, TxnID: txn})
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(lsn uint64) { errs <- l.commitWait(lsn) }(lsns[i])
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a waiter of the failed batch was acknowledged")
		}
	}
	if l.Err() == nil {
		t.Fatal("failed batch flush did not poison the logger")
	}
	if l.FlushedLSN() != 0 {
		t.Fatalf("flushed LSN advanced to %d across a failed sync", l.FlushedLSN())
	}
	if _, err := l.AppendCommit(99); err == nil {
		t.Fatal("post-poison commit succeeded")
	}
}

// TestGroupCommitEarlierFlushOutlivesLaterPoison: a commit covered by a
// successful flush stays acknowledged even though a LATER batch poisons
// the logger — durability already happened; poison only gates new work.
func TestGroupCommitEarlierFlushOutlivesLaterPoison(t *testing.T) {
	sink := fault.NewSink(&bytes.Buffer{}, fault.FailSync(2))
	l := NewLogger(sink, nil)
	l.Append(Record{Kind: KindBegin, TxnID: 1})
	lsn1, err := l.AppendCommit(1)
	if err != nil {
		t.Fatalf("first commit: %v", err)
	}
	l.Append(Record{Kind: KindBegin, TxnID: 2})
	if _, err := l.AppendCommit(2); err == nil {
		t.Fatal("second commit survived its failed flush")
	}
	// The first commit's coverage is still intact, and commitWait agrees.
	if l.FlushedLSN() < lsn1 {
		t.Fatalf("flushed LSN %d regressed below acknowledged commit %d", l.FlushedLSN(), lsn1)
	}
	if err := l.commitWait(lsn1); err != nil {
		t.Fatalf("already-covered commit re-answered %v, want nil", err)
	}
}

// TestGroupCommitConcurrentSyncsSublinear is the acceptance-criterion
// test: ≥32 concurrent committers over a file-backed (really-fsyncing)
// WAL, with a modeled device latency, must share flushes — Syncs() grows
// sublinearly in commits (here: at most half).
func TestGroupCommitConcurrentSyncsSublinear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	// The synced hook models device latency: tmpfs fsync is near-free, and
	// group commit only pays off (and only batches) when syncs cost
	// something for committers to pile up behind.
	l := NewLogger(sink, func() { time.Sleep(200 * time.Microsecond) })
	const (
		workers       = 32
		commitsPerWkr = 8
		totalCommits  = workers * commitsPerWkr
	)
	var wg sync.WaitGroup
	errs := make(chan error, totalCommits)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commitsPerWkr; i++ {
				txn := uint64(w*commitsPerWkr + i + 1)
				if _, err := l.Append(Record{Kind: KindBegin, TxnID: txn}); err != nil {
					errs <- err
					return
				}
				if _, err := l.Append(Record{Kind: KindInsert, TxnID: txn, Key: txn, Vals: []uint64{txn}}); err != nil {
					errs <- err
					return
				}
				if _, err := l.AppendCommit(txn); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("commit failed: %v", err)
	}
	if s := l.Syncs(); s*2 > totalCommits {
		t.Fatalf("syncs = %d for %d commits: group commit is not batching", s, totalCommits)
	}
	if b := l.GroupBatches(); b == 0 || b > totalCommits {
		t.Fatalf("batches = %d for %d commits", b, totalCommits)
	}
	// Every acknowledged commit is durable in the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	committed := Analyze(records)
	for txn := uint64(1); txn <= totalCommits; txn++ {
		if !committed[txn] {
			t.Fatalf("acknowledged txn %d missing from the durable log", txn)
		}
	}
}

// TestGroupCommitCrashRecoveryProperty tosses a simulated crash into the
// batch leader (the new wal.groupcommit.batch-flush point: batch sealed,
// nothing durable) under real concurrency, then checks the committed-
// prefix property over the bytes that actually reached the file: every
// commit that was ACKNOWLEDGED before the crash replays as committed.
// Committers left waiting on the dead leader's batch are abandoned, like
// the threads of a SIGKILLed process.
func TestGroupCommitCrashRecoveryProperty(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	path := filepath.Join(t.TempDir(), "wal")
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLogger(sink, func() { time.Sleep(100 * time.Microsecond) })
	fault.Trip("wal.groupcommit.batch-flush", 5)

	var ackedMu sync.Mutex
	acked := make(map[uint64]bool) // guarded by ackedMu

	const workers = 8
	crashCh := make(chan *fault.Crash, workers)
	crash := fault.RunToCrash(func() {
		for w := 0; w < workers; w++ {
			go func(w int) {
				// A crash point fires in whichever committer leads the
				// doomed batch; that goroutine is the "process death" —
				// report it and vanish. The others block forever on the
				// dead leader's batch, faithfully leaked.
				defer func() {
					if r := recover(); r != nil {
						if c, ok := r.(*fault.Crash); ok {
							crashCh <- c
							return
						}
						panic(r)
					}
				}()
				for i := 0; ; i++ {
					txn := uint64(w*1_000_000 + i + 1)
					if _, err := l.Append(Record{Kind: KindBegin, TxnID: txn}); err != nil {
						return
					}
					if _, err := l.AppendCommit(txn); err != nil {
						return
					}
					ackedMu.Lock()
					acked[txn] = true
					ackedMu.Unlock()
				}
			}(w)
		}
		panic(<-crashCh) // surface the first worker's crash to RunToCrash
	})
	if crash == nil || crash.Point != "wal.groupcommit.batch-flush" {
		t.Fatalf("expected a crash at the batch-flush point, got %+v", crash)
	}

	// The durable bytes are frozen: the doomed batch's leader died with
	// the batch sealed, so no later flush can run.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records, rerr := ReadAll(bytes.NewReader(data))
	if rerr != nil {
		t.Fatalf("durable log unreadable: %v", rerr)
	}
	committed := Analyze(records)
	ackedMu.Lock()
	defer ackedMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("calibration failure: no commit was acknowledged before the crash")
	}
	for txn := range acked {
		if !committed[txn] {
			t.Fatalf("txn %d was acknowledged before the crash but is not committed in the durable log", txn)
		}
	}
}

// TestGroupCommitLoneCommitterFlushesOnce: without concurrency every commit
// leads its own batch, so sequential commits cost exactly one flush each and
// each returns durable.
func TestGroupCommitLoneCommitterFlushesOnce(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, nil)
	for txn := uint64(1); txn <= 5; txn++ {
		l.Append(Record{Kind: KindBegin, TxnID: txn})
		lsn, err := l.AppendCommit(txn)
		if err != nil {
			t.Fatal(err)
		}
		if f := l.FlushedLSN(); f < lsn {
			t.Fatalf("commit %d returned at LSN %d with flushed LSN %d", txn, lsn, f)
		}
	}
	if s := l.Syncs(); s != 5 {
		t.Fatalf("syncs = %d, want 5 (one per sequential commit)", s)
	}
	if b := l.GroupBatches(); b != 5 {
		t.Fatalf("batches = %d, want 5 (each lone commit leads its own batch)", b)
	}
}
