package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"lstore"
)

// The olap_spilled table: id, a uniform in [0,aDomain) and unclustered, b
// with bValues values, and c = id/cGroup, clustered like a time column.
const (
	aDomain = 10000
	bValues = 10
	cGroup  = 64
)

// olapData is the generated table plus the per-value tallies every answer
// is checked against.
type olapData struct {
	rows                int
	a                   []int32
	b                   []int8
	cntA, sumCByA       []int64 // prefix sums over a's values
	cntB                []int64
	sumAByC, cntC       []int64 // prefix sums over c's values
	aSpan, cVals, cSpan int
}

func genOLAP(seed int64, rows int) *olapData {
	rng := rand.New(rand.NewSource(seed))
	d := &olapData{rows: rows, a: make([]int32, rows), b: make([]int8, rows)}
	d.cVals = (rows + cGroup - 1) / cGroup
	d.aSpan, d.cSpan = aDomain/100, max(1, d.cVals/100)
	d.cntA, d.sumCByA = make([]int64, aDomain+1), make([]int64, aDomain+1)
	d.cntB = make([]int64, bValues)
	d.sumAByC, d.cntC = make([]int64, d.cVals+1), make([]int64, d.cVals+1)
	for i := 0; i < rows; i++ {
		a, b, c := rng.Intn(aDomain), rng.Intn(bValues), i/cGroup
		d.a[i], d.b[i] = int32(a), int8(b)
		d.cntA[a+1]++
		d.sumCByA[a+1] += int64(c)
		d.cntB[b]++
		d.sumAByC[c+1] += int64(a)
		d.cntC[c+1]++
	}
	for _, ps := range [][]int64{d.cntA, d.sumCByA, d.sumAByC, d.cntC} {
		for i := 1; i < len(ps); i++ {
			ps[i] += ps[i-1]
		}
	}
	return d
}

func olapSchema() lstore.Schema {
	return lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "a", Type: lstore.Int64},
		lstore.Column{Name: "b", Type: lstore.Int64},
		lstore.Column{Name: "c", Type: lstore.Int64},
	)
}

func (d *olapData) row(k int) lstore.Row {
	return lstore.Row{"id": lstore.Int(int64(k)), "a": lstore.Int(int64(d.a[k])),
		"b": lstore.Int(int64(d.b[k])), "c": lstore.Int(int64(k / cGroup))}
}

func (d *olapData) load(db *lstore.DB, tbl *lstore.Table, from, to int) error {
	for lo := from; lo < to; lo += loadBatch {
		tx := db.Begin(lstore.ReadCommitted)
		for k := lo; k < min(lo+loadBatch, to); k++ {
			if err := tbl.Insert(tx, d.row(k)); err != nil {
				tx.Abort()
				return fmt.Errorf("load key %d: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	return nil
}

// encodedBytes estimates the table's encoded base footprint from a
// resident sample of its first sixteenth: every range has the same value
// distributions, so the footprint scales with the row count.
func (d *olapData) encodedBytes() (int64, error) {
	const sample = 16
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("sample", olapSchema())
	if err != nil {
		return 0, err
	}
	n := d.rows / sample
	if err := d.load(db, tbl, 0, n); err != nil {
		return 0, err
	}
	tbl.Merge()
	return int64(tbl.CompressionStats().PhysicalWords) * 8 * int64(d.rows) / int64(n), nil
}

// The four query shapes. Each checks its answer against the tallies.

func (d *olapData) aRange(tbl *lstore.Table, lo int) (int64, error) {
	hi := lo + d.aSpan - 1
	res, err := tbl.Query().Where(lstore.Between("a", lstore.Int(int64(lo)), lstore.Int(int64(hi)))).Aggregate(lstore.Sum("c"))
	if err != nil {
		return 0, fmt.Errorf("a-range query: %w", err)
	}
	want, wantRows := d.sumCByA[hi+1]-d.sumCByA[lo], d.cntA[hi+1]-d.cntA[lo]
	if res.Int(0) != want || res.Rows(0) != wantRows {
		return 0, incorrect("a in [%d,%d]: SUM(c)=%d over %d rows, want %d over %d", lo, hi, res.Int(0), res.Rows(0), want, wantRows)
	}
	return wantRows, nil
}

func (d *olapData) bEq(tbl *lstore.Table, v int) (int64, error) {
	n, err := tbl.Query().Where(lstore.Eq("b", lstore.Int(int64(v)))).Count()
	if err != nil {
		return 0, fmt.Errorf("b-eq query: %w", err)
	}
	if n != d.cntB[v] {
		return 0, incorrect("b = %d: COUNT=%d, want %d", v, n, d.cntB[v])
	}
	return n, nil
}

func (d *olapData) cRange(tbl *lstore.Table, lo int) (int64, error) {
	hi := lo + d.cSpan - 1
	res, err := tbl.Query().Where(lstore.Between("c", lstore.Int(int64(lo)), lstore.Int(int64(hi)))).Aggregate(lstore.Sum("a"))
	if err != nil {
		return 0, fmt.Errorf("c-range query: %w", err)
	}
	want, wantRows := d.sumAByC[hi+1]-d.sumAByC[lo], d.cntC[hi+1]-d.cntC[lo]
	if res.Int(0) != want || res.Rows(0) != wantRows {
		return 0, incorrect("c in [%d,%d]: SUM(a)=%d over %d rows, want %d over %d", lo, hi, res.Int(0), res.Rows(0), want, wantRows)
	}
	return wantRows, nil
}

func (d *olapData) pointGet(db *lstore.DB, tbl *lstore.Table, k int) error {
	tx := db.Begin(lstore.ReadCommitted)
	row, found, err := tbl.Get(tx, int64(k))
	if err != nil {
		tx.Abort()
		return fmt.Errorf("get %d: %w", k, err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("get %d: commit: %w", k, err)
	}
	if !found || row["a"].Int() != int64(d.a[k]) || row["b"].Int() != int64(d.b[k]) || row["c"].Int() != int64(k/cGroup) {
		return incorrect("get %d: found=%v row=%v, want a=%d b=%d c=%d", k, found, row, d.a[k], d.b[k], k/cGroup)
	}
	return nil
}

// verify reads every row back and compares it with the generated columns.
func (d *olapData) verify(tbl *lstore.Table) error {
	n := 0
	var bad error
	err := tbl.Query().Select("a", "b", "c").Rows(func(r *lstore.RowView) bool {
		k := int(r.Key())
		if k != n || r.IntAt(0) != int64(d.a[k]) || r.IntAt(1) != int64(d.b[k]) || r.IntAt(2) != int64(k/cGroup) {
			bad = incorrect("row %d: key %d a=%d b=%d c=%d, want key %d", n, k, r.IntAt(0), r.IntAt(1), r.IntAt(2), n)
			return false
		}
		n++
		return true
	})
	if err != nil {
		return fmt.Errorf("final pass: %w", err)
	}
	if bad != nil {
		return bad
	}
	if n != d.rows {
		return incorrect("final pass: %d rows, want %d", n, d.rows)
	}
	return nil
}

// runOLAP is one olap_spilled round: the table is loaded, merged and then
// only read, through a buffer pool capped at 1/8 of its encoded bytes. One
// analyst cycles a-range SUM, b-equality COUNT, c-range SUM and point-get
// transactions a fixed number of times.
func runOLAP(p *pass) error {
	rows := p.sz.olapRows
	seed := p.roundSeed()
	d := genOLAP(seed, rows)
	est, err := d.encodedBytes()
	if err != nil {
		return err
	}
	poolBytes := est / 8
	dir, err := p.roundDir("spill")
	if err != nil {
		return err
	}
	spill, err := lstore.OpenFileSpill(filepath.Join(dir, "spill"))
	if err != nil {
		return err
	}
	defer spill.Close()
	var tap *spillTap
	var sink lstore.SpillSink = spill
	if p.tr != nil {
		tap = &spillTap{sink: spill, tr: p.tr}
		sink = tap
	}

	t0 := time.Now()
	db := lstore.Open()
	defer db.Close()
	tbl, err := db.CreateTable("t", olapSchema(), lstore.TableOptions{Spill: sink, PoolBytes: poolBytes})
	if err != nil {
		return err
	}
	if err := d.load(db, tbl, 0, rows); err != nil {
		return err
	}
	tbl.Merge()
	p.e.setup = append(p.e.setup, time.Since(t0).Seconds())
	p.noteEngine(tbl, rows)
	cs := tbl.CompressionStats()
	p.env["pool_frac_of_encoded"] = fmt.Sprintf("%.3f", float64(poolBytes)/float64(cs.PhysicalWords*8))

	var appendMs float64
	if tap != nil {
		appendMs = tap.takeAppendMs()
	}
	before := tbl.Stats()
	gcw := startGC()
	rng := rand.New(rand.NewSource(seed + 1))
	var shapes [4]samples // a_range, b_eq, c_range, point_get
	var fast, slow, decoded, skipped, match uint64
	residentMax := before.PoolResidentBytes
	var scanSecs float64 // time in scan queries this cycle
	var cycles samples   // mean scan time per cycle
	scan := func(shape int, q func() (int64, error)) error {
		var st0 lstore.StatsSnapshot
		if p.tr != nil {
			st0 = tbl.Stats()
		}
		sp := p.tr.begin("query", 0, 0)
		if tap != nil {
			tap.cur.Store(sp)
		}
		t := time.Now()
		n, err := q()
		d := time.Since(t)
		shapes[shape].add(d)
		scanSecs += d.Seconds()
		sp.end()
		if err != nil {
			return err
		}
		if p.tr != nil {
			st := tbl.Stats()
			fast += st.ScanFastSlots - st0.ScanFastSlots
			slow += st.ScanSlowSlots - st0.ScanSlowSlots
			decoded += st.ScanWordsDecoded - st0.ScanWordsDecoded
			skipped += st.ScanWordsSkipped - st0.ScanWordsSkipped
			match += uint64(n)
			residentMax = max(residentMax, st.PoolResidentBytes)
		}
		return nil
	}
	for i := 0; i < p.sz.olapCycles; i++ {
		scanSecs = 0
		if err := scan(0, func() (int64, error) { return d.aRange(tbl, rng.Intn(aDomain-d.aSpan+1)) }); err != nil {
			return err
		}
		if err := scan(1, func() (int64, error) { return d.bEq(tbl, rng.Intn(bValues)) }); err != nil {
			return err
		}
		if err := scan(2, func() (int64, error) { return d.cRange(tbl, rng.Intn(d.cVals-d.cSpan+1)) }); err != nil {
			return err
		}
		var getSecs float64
		for j := 0; j < p.sz.olapGets; j++ {
			sp := p.tr.begin("txn", 0, 0)
			if tap != nil {
				tap.cur.Store(sp)
			}
			t := time.Now()
			err := d.pointGet(db, tbl, rng.Intn(rows))
			el := time.Since(t)
			shapes[3].add(el)
			getSecs += el.Seconds()
			sp.end()
			if err != nil {
				return err
			}
		}
		p.e.queryRate.add(3, scanSecs)
		// The three shapes take 4–14 ms each, so a percentile over single
		// queries falls between their modes and jumps from run to run; a
		// query sample is the cycle's mean scan time instead.
		cycles.add(time.Duration(scanSecs / 3 * float64(time.Second)))
		p.e.txnRate.add(p.sz.olapGets, getSecs)
	}
	if tap != nil {
		tap.cur.Store(nil)
	}
	gcd := gcw.stop()
	after := tbl.Stats()

	scans := shapes[0].n() + shapes[1].n() + shapes[2].n()
	ops := scans + shapes[3].n()
	p.e.attempted += int64(ops)
	p.e.txn.merge(&shapes[3])
	p.e.query.merge(&cycles)
	p.e.heap = append(p.e.heap, liveHeapMB())

	if p.tr != nil {
		l := p.layer
		for i, name := range []string{"a_range", "b_eq", "c_range", "point_get"} {
			l["query_shape."+name+"_ms.p50"] = shapes[i].pct(0.5)
		}
		hits, misses := float64(after.PoolHits-before.PoolHits), float64(after.PoolMisses-before.PoolMisses)
		l["bufpool.hit_ratio"] = ratio(hits, hits+misses)
		l["bufpool.misses_per_query"] = ratio(misses, float64(ops))
		l["bufpool.evictions_per_query"] = ratio(float64(after.PoolEvictions-before.PoolEvictions), float64(ops))
		l["bufpool.resident_bytes.max"] = float64(residentMax)
		reads, readBytes := tap.takeReads()
		l["bufpool.read_ms.p50"] = reads.pct(0.5)
		l["bufpool.read_ms.p99"] = reads.pct(0.99)
		l["bufpool.read_bytes_per_query"] = ratio(float64(readBytes), float64(ops))
		l["bufpool.append_ms.total"] = appendMs
		l["compress.ratio"] = cs.Ratio()
		pages := cs.PagesRaw + cs.PagesPacked + cs.PagesDict + cs.PagesRLE
		l["compress.raw_page_frac"] = ratio(float64(cs.PagesRaw), float64(pages))
		p.scanLayers(fast, slow, decoded, skipped, match, scans)
		p.gcLayers(gcd, ops)
	}

	spillBytes := spill.Size()
	return p.restartFromImage(db, imageRestart{
		rows:       rows,
		userBytes:  float64(rows * 4 * 8),
		poolBytes:  poolBytes,
		otherBytes: spillBytes,
		firstQuery: func(t *lstore.Table) error { _, err := d.aRange(t, 0); return err },
		check:      d.verify,
	})
}
