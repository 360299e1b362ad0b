package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lstore"
	"lstore/internal/server"
)

func storeConfig(dir string) server.StoreConfig {
	cols := []lstore.Column{{Name: "id", Type: lstore.Int64}}
	for _, c := range dataCols {
		cols = append(cols, lstore.Column{Name: c, Type: lstore.Int64})
	}
	return server.StoreConfig{
		WALPath:        filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
		Tables:         []server.TableSpec{{Name: "t", Key: "id", Columns: cols}},
	}
}

// runRestart is one restart round. server.OpenStore, the production open
// path, builds the table; the benchmark checkpoints it, then commits a
// fixed count of §6.1 transactions, each fsynced before it is acknowledged.
// The store's files at that point are what a process kill leaves; each
// timed open runs server.OpenStore on a fresh copy of them, and must redo
// exactly the transactions committed after the checkpoint.
func runRestart(p *pass) error {
	rows := p.sz.restartRows
	seed := p.roundSeed()
	m := newModel(seed, rows)
	dir, err := p.roundDir("store")
	if err != nil {
		return err
	}

	t0 := time.Now()
	st, err := server.OpenStore(storeConfig(dir))
	if err != nil {
		return err
	}
	defer st.Close()
	tbl, _ := st.DB.Table("t")
	if err := m.load(st.DB, tbl); err != nil {
		return err
	}
	c0 := time.Now()
	if _, err := st.DB.CheckpointTo(st.Checkpoint); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ckptMs := float64(time.Since(c0)) / 1e6
	p.e.setup = append(p.e.setup, time.Since(t0).Seconds())
	p.noteEngine(tbl, rows)
	image, err := fileSize(st.CkptFile)
	if err != nil {
		return err
	}

	gcw := startGC()
	wal0, st0 := st.DB.WALInfo(), tbl.Stats()
	w, err := p.writer(st.DB, tbl, m, seed, p.sz.restartTxns)
	if err != nil {
		return err
	}
	if p.tr != nil {
		wal1 := st.DB.WALInfo()
		p.writerLayers(st0, tbl.Stats(), w)
		p.layer["wal.syncs_per_commit"] = ratio(float64(wal1.Syncs-wal0.Syncs), float64(w.committed))
		p.layer["wal.commits_per_batch"] = ratio(float64(w.committed), float64(wal1.GroupBatches-wal0.GroupBatches))
	}
	p.e.txnRate.merge(w.rate)
	p.e.txn.merge(&w.lat)
	p.e.attempted += int64(w.attempted)
	p.e.failed += int64(w.failed)

	crash, err := p.roundDir("crash")
	if err != nil {
		return err
	}
	if err := copyDir(dir, crash); err != nil {
		return err
	}
	stored, err := dirSize(crash)
	if err != nil {
		return err
	}
	p.e.stored = append(p.e.stored, float64(stored)/float64(rows*wideCols*8))
	st.Close()

	rng := rand.New(rand.NewSource(seed + 1))
	var queries samples
	for k := 0; k < p.sz.restartOpens; k++ {
		if err := p.openCopy(crash, k, rows, w.committed, m, rng, &queries, ckptMs, image); err != nil {
			return err
		}
	}
	gcd := gcw.stop()
	p.e.query.merge(&queries)
	p.e.attempted += int64(queries.n())
	if p.tr != nil {
		p.gcLayers(gcd, w.attempted+queries.n())
	}
	return nil
}

// openCopy runs one timed server.OpenStore on a fresh copy of the crash
// image, then the first query and restartQueries more. The first open of a
// round also checks every row against the model.
func (p *pass) openCopy(crash string, k, rows, committed int, m *model, rng *rand.Rand, queries *samples, ckptMs float64, image int64) error {
	dir, err := p.roundDir(fmt.Sprintf("open%d", k))
	if err != nil {
		return err
	}
	if err := copyDir(crash, dir); err != nil {
		return err
	}
	before, err := fileSizes(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := p.tr.begin("recovery.open", 0, 0)
	st, err := server.OpenStore(storeConfig(dir))
	sp.end()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	p.e.restart = append(p.e.restart, time.Since(t0).Seconds())
	rec := st.Recovered
	if rec.RedoneTxns != committed || rec.CheckpointRows != int64(rows) {
		return incorrect("reopen redid %d txns over %d checkpoint rows, want %d over %d", rec.RedoneTxns, rec.CheckpointRows, committed, rows)
	}
	tbl, _ := st.DB.Table("t")
	span := rows / 10
	fq := p.tr.begin("first_query", 0, 0)
	t1 := time.Now()
	if err := rangeSum(tbl, 0, span); err != nil {
		return err
	}
	firstMs := float64(time.Since(t1)) / 1e6
	fq.end()
	var secs float64
	for i := 0; i < p.sz.restartQueries; i++ {
		lo := int64(rng.Intn(rows - span + 1))
		sp := p.tr.begin("query", 0, 0)
		t := time.Now()
		err := rangeSum(tbl, lo, span)
		d := time.Since(t)
		queries.add(d)
		secs += d.Seconds()
		sp.end()
		if err != nil {
			return err
		}
	}
	p.e.queryRate.add(p.sz.restartQueries, secs)
	if k == 0 {
		if err := m.verify(tbl); err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
	}
	if k == p.sz.restartOpens-1 {
		p.e.heap = append(p.e.heap, liveHeapMB())
	}
	if p.tr != nil {
		after, err := fileSizes(dir)
		if err != nil {
			return err
		}
		var read, written int64
		for _, n := range before {
			read += n
		}
		for name, n := range after {
			if n > before[name] {
				written += n - before[name]
			}
		}
		p.recoveryLayers(ckptMs, image, rec, read, written, firstMs)
	}
	return nil
}

// fileSizes maps each regular file in dir to its size.
func fileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}
