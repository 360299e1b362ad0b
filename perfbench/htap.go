package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lstore"
	"lstore/internal/workload"
)

// runHTAP is one htap_resident round: an in-memory table without a WAL, one
// writer goroutine running a fixed count of §6.1 transactions, and one
// analyst goroutine running 10% range SUMs until the writer finishes. The
// writer is the only updater, so its model is exact: every read inside a
// transaction and the final Rows pass must match it.
func runHTAP(p *pass) error {
	rows := p.sz.htapRows
	seed := p.roundSeed()

	t0 := time.Now()
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", wideSchema())
	if err != nil {
		return err
	}
	m := newModel(seed, rows)
	if err := m.load(db, tbl); err != nil {
		return err
	}
	tbl.Merge()
	p.e.setup = append(p.e.setup, time.Since(t0).Seconds())
	p.noteEngine(tbl, rows)

	before := tbl.Stats()
	gcw := startGC()
	var done atomic.Bool
	var wg sync.WaitGroup
	var an analyst
	var anErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		anErr = an.run(p, tbl, rows, seed+1, &done)
	}()
	w, werr := p.writer(db, tbl, m, seed, p.sz.htapTxns)
	done.Store(true)
	wg.Wait()
	gcd := gcw.stop()
	if werr != nil {
		return werr
	}
	if anErr != nil {
		return anErr
	}
	after := tbl.Stats()

	p.e.attempted += int64(w.attempted + an.q.n())
	p.e.failed += int64(w.failed)
	p.e.txn.merge(&w.lat)
	p.e.query.merge(&an.q)
	p.e.txnRate.merge(w.rate)
	p.e.queryRate.merge(an.rate)
	p.e.queryTrend = true
	p.e.heap = append(p.e.heap, liveHeapMB())

	if err := m.verify(tbl); err != nil {
		return err
	}
	if p.tr != nil {
		p.htapLayers(before, after, w, &an, gcd)
	}
	return p.restartFromImage(db, imageRestart{
		rows:       rows,
		userBytes:  float64(rows * wideCols * 8),
		firstQuery: func(t *lstore.Table) error { return rangeSum(t, 0, rows/10) },
		check:      m.verify,
	})
}

// rangeSum runs the analyst's query, SUM(c1) over span keys from lo, and
// checks that it saw exactly span rows (no row is ever inserted or deleted).
func rangeSum(tbl *lstore.Table, lo int64, span int) error {
	res, err := tbl.Query().Where(lstore.Between("id", lstore.Int(lo), lstore.Int(lo+int64(span)-1))).Aggregate(lstore.Sum("c1"))
	if err != nil {
		return fmt.Errorf("range query: %w", err)
	}
	if res.Rows(0) != int64(span) {
		return incorrect("range query over [%d,%d] saw %d rows, want %d", lo, lo+int64(span)-1, res.Rows(0), span)
	}
	return nil
}

// writerResult is what the §6.1 writer did in one round.
type writerResult struct {
	attempted, committed, failed int
	lat                          samples // Begin to Commit return
	rate                         rate    // committed per second, in chunks of 1/50 of the run
	get, update, commit          samples // traced pass only
}

// writer runs n §6.1 transactions in process: 8 Gets and 2 Updates of 4
// columns each, ReadCommitted, keys uniform over the table.
func (p *pass) writer(db *lstore.DB, tbl *lstore.Table, m *model, seed int64, n int) (*writerResult, error) {
	gen := workload.NewGenerator(workload.ForContention(workload.Low, m.rows), seed)
	w := &writerResult{}
	chunk := max(1, n/50)
	mark, marked := time.Now(), 0
	for i := 0; i < n; i++ {
		if i > 0 && i%chunk == 0 {
			w.rate.add(w.committed-marked, time.Since(mark).Seconds())
			mark, marked = time.Now(), w.committed
		}
		ops := gen.NextTxn()
		w.attempted++
		t0 := time.Now()
		sp := p.tr.begin("txn", 0, 0)
		tx := db.Begin(lstore.ReadCommitted)
		if err := p.applyOps(tbl, tx, ops, m, sp, w); err != nil {
			tx.Abort()
			return w, err
		}
		c := p.tr.begin("api.commit", sp.trace(), sp.id())
		err := tx.Commit()
		if p.tr != nil {
			w.commit.add(c.end())
		}
		sp.end()
		if err != nil {
			w.failed++
			continue
		}
		w.lat.add(time.Since(t0))
		w.committed++
		m.apply(ops)
	}
	w.rate.add(w.committed-marked, time.Since(mark).Seconds())
	return w, nil
}

// applyOps runs one transaction's statements, checking every read against
// the model (reads come before the transaction's own writes).
func (p *pass) applyOps(tbl *lstore.Table, tx *lstore.Txn, ops []workload.Op, m *model, sp *open, w *writerResult) error {
	for _, op := range ops {
		if op.Write {
			s := p.tr.begin("api.update", sp.trace(), sp.id())
			err := tbl.Update(tx, op.Key, updateRow(op))
			if p.tr != nil {
				w.update.add(s.end())
			}
			if err != nil {
				return fmt.Errorf("update %d: %w", op.Key, err)
			}
			continue
		}
		s := p.tr.begin("api.get", sp.trace(), sp.id())
		row, found, err := tbl.Get(tx, op.Key, colNames(op.Cols)...)
		if p.tr != nil {
			w.get.add(s.end())
		}
		if err != nil {
			return fmt.Errorf("get %d: %w", op.Key, err)
		}
		if err := m.checkRow(op.Key, op.Cols, row, found); err != nil {
			return err
		}
	}
	return nil
}

// analyst runs closed-loop 10% range SUM(c1) queries until done is set and
// it has run its share of the tail-sample rule's minimum (a slow analyst on
// a short round would otherwise leave too few queries for query_p95_ms).
type analyst struct {
	q    samples
	rate rate // queries per second, in chunks of analystChunk queries

	// traced pass only: engine gauges sampled at each query boundary
	backlogMax, queueMax                int64
	fast, slow, decoded, skipped, match uint64
}

func (a *analyst) run(p *pass, tbl *lstore.Table, rows int, seed int64, done *atomic.Bool) error {
	rng := rand.New(rand.NewSource(seed))
	span := rows / 10
	const analystChunk = 5
	minQueries := (chunkSize(0.95) + p.sz.rounds - 1) / p.sz.rounds
	mark := time.Now()
	defer func() {
		if rest := a.q.n() % analystChunk; rest > 0 {
			a.rate.add(rest, time.Since(mark).Seconds())
		}
	}()
	for !done.Load() || a.q.n() < minQueries {
		lo := int64(rng.Intn(rows - span + 1))
		var st0 lstore.StatsSnapshot
		if p.tr != nil {
			st0 = tbl.Stats()
		}
		t0 := time.Now()
		sp := p.tr.begin("query", 0, 0)
		err := rangeSum(tbl, lo, span)
		sp.end()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		a.q.add(d)
		if a.q.n()%analystChunk == 0 {
			a.rate.add(analystChunk, time.Since(mark).Seconds())
			mark = time.Now()
		}
		if p.tr != nil {
			st := tbl.Stats()
			a.backlogMax = max(a.backlogMax, st.MergeBacklog)
			a.queueMax = max(a.queueMax, int64(st.MergeQueueDepth))
			a.fast += st.ScanFastSlots - st0.ScanFastSlots
			a.slow += st.ScanSlowSlots - st0.ScanSlowSlots
			a.decoded += st.ScanWordsDecoded - st0.ScanWordsDecoded
			a.skipped += st.ScanWordsSkipped - st0.ScanWordsSkipped
			a.match += uint64(span)
		}
	}
	return nil
}

// htapLayers records the traced pass's api, core, merge, scan and runtime
// metrics. Rounds overwrite one another; the last round's values stand.
func (p *pass) htapLayers(before, after lstore.StatsSnapshot, w *writerResult, an *analyst, gcd gcDelta) {
	p.writerLayers(before, after, w)
	p.mergeLayers(before, after, an.backlogMax, an.queueMax)
	p.scanLayers(an.fast, an.slow, an.decoded, an.skipped, an.match, an.q.n())
	p.gcLayers(gcd, w.attempted+an.q.n())
}

// writerLayers records the in-process writer's api, core apply and txn
// metrics.
func (p *pass) writerLayers(before, after lstore.StatsSnapshot, w *writerResult) {
	l := p.layer
	l["api.get_us.p50"] = w.get.pct(0.5) * 1e3
	l["api.get_us.p99"] = w.get.pct(0.99) * 1e3
	l["api.update_us.p50"] = w.update.pct(0.5) * 1e3
	l["api.update_us.p99"] = w.update.pct(0.99) * 1e3
	l["api.commit_us.p50"] = w.commit.pct(0.5) * 1e3
	l["api.commit_us.p99"] = w.commit.pct(0.99) * 1e3
	l["core.tail_records_per_txn"] = ratio(float64(after.TailRecords-before.TailRecords), float64(w.committed))
	l["txn.conflicts"] = float64(after.WWConflicts - before.WWConflicts)
}

func (p *pass) mergeLayers(before, after lstore.StatsSnapshot, backlogMax, queueMax int64) {
	l := p.layer
	merges := float64(after.Merges - before.Merges)
	merged := float64(after.MergedTailRecords - before.MergedTailRecords)
	l["merge.count"] = merges
	l["merge.records_per_merge"] = ratio(merged, merges)
	l["merge.backlog.max"] = float64(max(backlogMax, after.MergeBacklog))
	l["merge.backlog.end"] = float64(after.MergeBacklog)
	l["merge.queue_depth.max"] = float64(max(queueMax, int64(after.MergeQueueDepth)))
	l["merge.consumed_frac"] = ratio(merged, float64(after.TailRecords-before.TailRecords))
}

func (p *pass) scanLayers(fast, slow, decoded, skipped, match uint64, queries int) {
	l := p.layer
	slots := float64(fast + slow)
	l["scan.slow_slot_frac"] = ratio(float64(slow), slots)
	l["scan.slots_per_query"] = ratio(slots, float64(queries))
	l["scan.words_decoded_per_query"] = ratio(float64(decoded), float64(queries))
	l["scan.words_skipped_frac"] = ratio(float64(skipped), float64(decoded+skipped))
	l["scan.rows_per_slot"] = ratio(float64(match), 64*float64(decoded+skipped))
}

func (p *pass) gcLayers(gcd gcDelta, ops int) {
	p.layer["gc.cycles"] = float64(gcd.cycles)
	p.layer["gc.pause_ms.total"] = gcd.pauseMs
	p.layer["gc.alloc_bytes_per_op"] = ratio(float64(gcd.allocBytes), float64(ops))
}
