package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lstore"
	"lstore/internal/server"
	"lstore/internal/workload"
)

// serveConns is the number of client connections: nproc on the 2-core
// machine the benchmark is sized for.
const serveConns = 2

// The wire shapes of /v1/txn and /v1/query, as a client writes them.
type wireOp struct {
	Op    string           `json:"op"`
	Table string           `json:"table"`
	Key   int64            `json:"key"`
	Set   map[string]int64 `json:"set,omitempty"`
	Cols  []string         `json:"cols,omitempty"`
}

type wireTxn struct {
	Ops []wireOp `json:"ops"`
}

type wireTxnResp struct {
	Committed bool `json:"committed"`
	Results   []struct {
		Found *bool            `json:"found"`
		Row   map[string]int64 `json:"row"`
	} `json:"results"`
}

type wirePred struct {
	Col    string `json:"col"`
	Op     string `json:"op"`
	Value  int64  `json:"value"`
	Value2 int64  `json:"value2"`
}

type wireAgg struct {
	Op  string `json:"op"`
	Col string `json:"col,omitempty"`
}

type wireQuery struct {
	Table     string     `json:"table"`
	Select    []string   `json:"select,omitempty"`
	Where     []wirePred `json:"where,omitempty"`
	Aggregate []wireAgg  `json:"aggregate,omitempty"`
	Limit     *int       `json:"limit,omitempty"`
}

type wireQueryResp struct {
	Rows       []map[string]int64 `json:"rows"`
	Truncated  bool               `json:"truncated"`
	Aggregates []struct {
		Rows int64 `json:"rows"`
	} `json:"aggregates"`
}

// spanHeader carries the client span ("trace.parent") to the handler tap.
const spanHeader = "X-Perfbench-Span"

// runServe is one serve_durable round: server.New over a DB with a
// file-backed WAL (group commit on), and serveConns keep-alive clients each
// sending a fixed count of requests, 9 of 10 a §6.1 transaction and 1 a 10%
// SUM query. Connection i updates only keys ≡ i mod serveConns, so each
// connection's part of the model is authoritative.
func runServe(p *pass) error {
	rows := p.sz.serveRows
	seed := p.roundSeed()
	m := newModel(seed, rows)
	dir, err := p.roundDir("serve")
	if err != nil {
		return err
	}
	walPath := filepath.Join(dir, "wal")

	t0 := time.Now()
	wf, err := lstore.OpenWALFile(walPath)
	if err != nil {
		return err
	}
	defer wf.Close()
	var sink io.Writer = wf
	var wtap *walTap
	if p.tr != nil {
		wtap = &walTap{f: wf, tr: p.tr}
		sink = wtap
	}
	db := lstore.Open(lstore.WithWAL(sink, nil))
	tbl, err := db.CreateTable("t", wideSchema())
	if err != nil {
		db.Close()
		return err
	}
	if err := m.load(db, tbl); err != nil {
		db.Close()
		return err
	}
	srv := server.New(db, server.Config{})
	shut := false
	defer func() {
		if !shut {
			srv.Shutdown(context.Background()) //nolint:errcheck // already failing
		}
	}()
	var h http.Handler = srv.Handler()
	var htap *handlerTap
	if p.tr != nil {
		htap = &handlerTap{next: h, tr: p.tr, handler: make(map[uint64]time.Duration)}
		h = htap
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stopHTTP := func() error {
		err := hs.Shutdown(context.Background())
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return err
	}
	base := "http://" + ln.Addr().String()
	clients := make([]*client, serveConns)
	for i := range clients {
		clients[i] = &client{
			hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			base: base, idx: i, p: p, htap: htap,
		}
		defer clients[i].hc.CloseIdleConnections()
		if err := clients[i].healthz(); err != nil {
			stopHTTP() //nolint:errcheck // already failing
			return err
		}
	}
	p.e.setup = append(p.e.setup, time.Since(t0).Seconds())
	p.noteEngine(tbl, rows)
	if wtap != nil {
		wtap.take() // the load's writes are set-up
	}

	wal0, st0 := db.WALInfo(), tbl.Stats()
	gcw := startGC()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.run(m, seed+10+int64(i))
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	gcd := gcw.stop()
	wal1, st1 := db.WALInfo(), tbl.Stats()
	if err := errors.Join(errs...); err != nil {
		stopHTTP() //nolint:errcheck // already failing
		return err
	}

	var committed, txnsSent, queries, shed int
	for _, c := range clients {
		p.e.txn.merge(&c.txnLat)
		p.e.query.merge(&c.queryLat)
		committed += c.committed
		txnsSent += c.txnLat.n() + c.failed
		queries += c.queryLat.n()
		shed += c.shed
		p.e.failed += int64(c.failed)
	}
	p.e.attempted += int64(txnsSent + queries)
	for _, c := range clients {
		p.e.txnRate.merge(c.txnRate)
		p.e.queryRate.merge(c.queryRate)
	}
	p.e.heap = append(p.e.heap, liveHeapMB())

	if err := clients[0].verifyAll(m); err != nil {
		stopHTTP() //nolint:errcheck // already failing
		return err
	}
	if err := stopHTTP(); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if p.tr != nil {
		p.serveLayers(clients, htap, wtap, wal0, wal1, st0, st1, committed, queries, shed, elapsed, gcd)
	}

	// Every acknowledged commit was fsynced, so the WAL file as it stands
	// is what a process kill leaves.
	image, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	p.e.stored = append(p.e.stored, float64(len(image))/float64(rows*wideCols*8))
	shut = true
	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	loadTxns := (rows + loadBatch - 1) / loadBatch
	for i := 0; i < restartsPerRound; i++ {
		if err := p.restartFromLog(walPath, rows, loadTxns+committed, m, i == 0); err != nil {
			return err
		}
	}
	return nil
}

// restartFromLog times a restart with no checkpoint: a fresh DB logging to
// a fresh WAL, the table re-created, and Recover replaying the whole log.
// check also compares every recovered row with the model.
func (p *pass) restartFromLog(walPath string, rows, wantRedone int, m *model, check bool) error {
	rdir, err := p.roundDir("relog")
	if err != nil {
		return err
	}
	newWAL := filepath.Join(rdir, "wal")
	t0 := time.Now()
	sp := p.tr.begin("recovery.open", 0, 0)
	log, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	wf, err := lstore.OpenWALFile(newWAL)
	if err != nil {
		return err
	}
	defer wf.Close()
	db := lstore.Open(lstore.WithWAL(wf, nil))
	defer db.Close()
	tbl, err := db.CreateTable("t", wideSchema())
	if err != nil {
		return err
	}
	stats, err := lstore.Recover(db, nil, bytes.NewReader(log))
	sp.end()
	if err != nil {
		return fmt.Errorf("restart from log: %w", err)
	}
	p.e.restart = append(p.e.restart, time.Since(t0).Seconds())
	fq := p.tr.begin("first_query", 0, 0)
	t0 = time.Now()
	if err := rangeSum(tbl, 0, rows/10); err != nil {
		return err
	}
	firstMs := float64(time.Since(t0)) / 1e6
	fq.end()
	if stats.RedoneTxns != wantRedone {
		return incorrect("restart redid %d txns, want %d (load plus committed)", stats.RedoneTxns, wantRedone)
	}
	if check {
		if err := m.verify(tbl); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
	}
	if p.tr != nil {
		if err := db.FlushWAL(); err != nil {
			return err
		}
		written, err := fileSize(newWAL)
		if err != nil {
			return err
		}
		p.recoveryLayers(0, 0, stats, int64(len(log)), written, firstMs)
	}
	return nil
}

// client is one keep-alive connection's closed loop.
type client struct {
	hc   *http.Client
	base string
	idx  int
	p    *pass
	htap *handlerTap

	txnLat, queryLat  samples
	committed, failed int
	// Rates in chunks of 50 requests, scaled by serveConns: the connections
	// run the same loop side by side, so each one's rate times their number
	// is the server's.
	txnRate, queryRate rate
	shed               int
	handler, outside   samples // traced pass, transactions only
}

func (c *client) healthz() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// post sends one request and decodes a 200 response into out. It returns
// the status and the round-trip time.
func (c *client) post(path string, body any, out any, sp *open) (int, time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", sp.trace(), sp.id()))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	rt := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, 0, fmt.Errorf("POST %s: decode: %w", path, err)
		}
	} else if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusTooManyRequests {
		return 0, 0, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, rt, nil
}

// run sends the connection's fixed request count.
func (c *client) run(m *model, seed int64) error {
	rows := m.rows
	gen := workload.NewGenerator(workload.ForContention(workload.Low, rows), seed)
	rng := rand.New(rand.NewSource(seed))
	span := rows / 10
	const chunk = 50
	mark, txns, queries := time.Now(), 0, 0
	defer func() {
		secs := time.Since(mark).Seconds()
		c.txnRate.add((c.committed-txns)*serveConns, secs)
		c.queryRate.add((c.queryLat.n()-queries)*serveConns, secs)
	}()
	for i := 0; i < c.p.sz.serveReqs; i++ {
		if i > 0 && i%chunk == 0 {
			secs := time.Since(mark).Seconds()
			c.txnRate.add((c.committed-txns)*serveConns, secs)
			c.queryRate.add((c.queryLat.n()-queries)*serveConns, secs)
			mark, txns, queries = time.Now(), c.committed, c.queryLat.n()
		}
		if i%10 == 9 {
			lo := int64(rng.Intn(rows - span + 1))
			q := wireQuery{Table: "t", Where: []wirePred{{Col: "id", Op: "between", Value: lo, Value2: lo + int64(span) - 1}},
				Aggregate: []wireAgg{{Op: "sum", Col: "c1"}}}
			sp := c.p.tr.begin("client.query", 0, 0)
			var resp wireQueryResp
			status, rt, err := c.post("/v1/query", q, &resp, sp)
			sp.end()
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("query refused with status %d", status)
			}
			if len(resp.Aggregates) != 1 || resp.Aggregates[0].Rows != int64(span) {
				return incorrect("served query over [%d,%d] answered %+v, want %d rows", lo, lo+int64(span)-1, resp.Aggregates, span)
			}
			c.queryLat.add(rt)
			continue
		}
		ops := gen.NextTxn()
		if err := c.txn(m, ops); err != nil {
			return err
		}
	}
	return nil
}

// txn sends one §6.1 transaction. Writes go to this connection's own keys;
// reads of its own keys must match the model, reads of the other
// connection's keys must find the row.
func (c *client) txn(m *model, ops []workload.Op) error {
	req := wireTxn{Ops: make([]wireOp, len(ops))}
	for j := range ops {
		op := &ops[j]
		if op.Write {
			op.Key = op.Key&^(serveConns-1) | int64(c.idx)
			set := make(map[string]int64, len(op.Cols))
			for k, col := range op.Cols {
				set[dataCols[col-1]] = op.Vals[k]
			}
			req.Ops[j] = wireOp{Op: "update", Table: "t", Key: op.Key, Set: set}
		} else {
			req.Ops[j] = wireOp{Op: "get", Table: "t", Key: op.Key, Cols: colNames(op.Cols)}
		}
	}
	sp := c.p.tr.begin("client.txn", 0, 0)
	var resp wireTxnResp
	status, rt, err := c.post("/v1/txn", req, &resp, sp)
	sp.end()
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		c.failed++
		if status == http.StatusTooManyRequests {
			c.shed++
		}
		return nil
	}
	if !resp.Committed || len(resp.Results) != len(ops) {
		return incorrect("txn answered committed=%v with %d results for %d ops", resp.Committed, len(resp.Results), len(ops))
	}
	for j, op := range ops {
		if op.Write {
			continue
		}
		r := resp.Results[j]
		if r.Found == nil || !*r.Found {
			return incorrect("served get %d: not found", op.Key)
		}
		if int(op.Key)%serveConns != c.idx {
			continue
		}
		for _, col := range op.Cols {
			if got, want := r.Row[dataCols[col-1]], m.at(op.Key, col); got != want {
				return incorrect("served get %d: %s = %d, model says %d", op.Key, dataCols[col-1], got, want)
			}
		}
	}
	m.apply(ops)
	c.committed++
	c.txnLat.add(rt)
	if c.htap != nil {
		if h, ok := c.htap.take(sp.id()); ok {
			c.handler.add(h)
			c.outside.add(rt - h)
		}
	}
	return nil
}

// verifyAll is the final pass: every row through /v1/query must match the
// model the connections kept.
func (c *client) verifyAll(m *model) error {
	all := -1
	var resp wireQueryResp
	status, _, err := c.post("/v1/query", wireQuery{Table: "t", Select: append([]string{"id"}, dataCols...), Limit: &all}, &resp, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK || resp.Truncated || len(resp.Rows) != m.rows {
		return incorrect("final served pass: status %d, %d rows (truncated %v), want %d", status, len(resp.Rows), resp.Truncated, m.rows)
	}
	seen := make([]bool, m.rows)
	for _, r := range resp.Rows {
		k, ok := r["id"]
		if !ok || k < 0 || int(k) >= m.rows || seen[k] {
			return incorrect("final served pass: unexpected or repeated row %v", r)
		}
		seen[k] = true
		for col := 1; col < wideCols; col++ {
			if got, want := r[dataCols[col-1]], m.at(k, col); got != want {
				return incorrect("final served pass: key %d %s = %d, model says %d", k, dataCols[col-1], got, want)
			}
		}
	}
	return nil
}

// handlerTap wraps Server.Handler(): it records a server.handler span under
// the client's span for every request and, for transactions, keeps the time
// inside the server and the request and response bytes.
type handlerTap struct {
	next http.Handler
	tr   *tracer

	mu                  sync.Mutex
	handler             map[uint64]time.Duration // guarded by mu; by client span id
	txns                int                      // guarded by mu
	reqBytes, respBytes int64                    // guarded by mu
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var trace, parent uint64
	if v := r.Header.Get(spanHeader); v != "" {
		t, pa, _ := strings.Cut(v, ".")
		trace, _ = strconv.ParseUint(t, 10, 64)
		parent, _ = strconv.ParseUint(pa, 10, 64)
	}
	sp := h.tr.begin("server.handler", trace, parent)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	el := sp.end()
	if r.URL.Path != "/v1/txn" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if parent != 0 {
		h.handler[parent] = el
	}
	h.txns++
	h.reqBytes += r.ContentLength
	h.respBytes += cw.n
}

// take returns and forgets the handler time of the request sent under the
// client span id.
func (h *handlerTap) take(id uint64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.handler[id]
	delete(h.handler, id)
	return d, ok
}

func (p *pass) serveLayers(clients []*client, htap *handlerTap, wtap *walTap, wal0, wal1 lstore.WALInfo,
	st0, st1 lstore.StatsSnapshot, committed, queries, shed int, elapsed time.Duration, gcd gcDelta) {
	l := p.layer
	var handler, outside samples
	for _, c := range clients {
		handler.merge(&c.handler)
		outside.merge(&c.outside)
	}
	l["server.handler_ms.p50"] = handler.pct(0.5)
	l["server.handler_ms.p99"] = handler.pct(0.99)
	l["server.outside_ms.p50"] = outside.pct(0.5)
	htap.mu.Lock()
	l["server.req_bytes_per_txn"] = ratio(float64(htap.reqBytes), float64(htap.txns))
	l["server.resp_bytes_per_txn"] = ratio(float64(htap.respBytes), float64(htap.txns))
	htap.mu.Unlock()
	l["server.shed"] = float64(shed)

	busy, syncs, written := wtap.take()
	l["wal.sync_ms.p50"] = syncs.pct(0.5)
	l["wal.sync_ms.p99"] = syncs.pct(0.99)
	l["wal.syncs_per_commit"] = ratio(float64(wal1.Syncs-wal0.Syncs), float64(committed))
	l["wal.commits_per_batch"] = ratio(float64(committed), float64(wal1.GroupBatches-wal0.GroupBatches))
	l["wal.bytes_per_txn"] = ratio(float64(written), float64(committed))
	l["wal.busy_frac"] = ratio(float64(busy), float64(elapsed))

	l["core.tail_records_per_txn"] = ratio(float64(st1.TailRecords-st0.TailRecords), float64(committed))
	l["txn.conflicts"] = float64(st1.WWConflicts - st0.WWConflicts)
	p.mergeLayers(st0, st1, st1.MergeBacklog, int64(st1.MergeQueueDepth))
	p.scanLayers(st1.ScanFastSlots-st0.ScanFastSlots, st1.ScanSlowSlots-st0.ScanSlowSlots,
		st1.ScanWordsDecoded-st0.ScanWordsDecoded, st1.ScanWordsSkipped-st0.ScanWordsSkipped,
		uint64(queries*(p.sz.serveRows/10)), queries)
	p.gcLayers(gcd, committed+queries)
}
