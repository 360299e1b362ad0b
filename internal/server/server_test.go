package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lstore"
	"lstore/internal/fault"
)

func kvSpec() TableSpec {
	return TableSpec{
		Name: "kv",
		Key:  "id",
		Columns: []lstore.Column{
			{Name: "id", Type: lstore.Int64},
			{Name: "v", Type: lstore.Int64},
			{Name: "note", Type: lstore.String},
		},
		Indexes: []string{"v"},
	}
}

func storeConfig(dir string) StoreConfig {
	return StoreConfig{
		WALPath:        filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
		Tables:         []TableSpec{kvSpec()},
	}
}

func postJSON(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil && rec.Body.Len() > 0 {
		t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
	}
	return rec, out
}

func getJSON(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
	}
	return rec, out
}

// TestServeEndToEnd drives the full lifecycle over a real TCP listener:
// open a durable store, commit transactions and run queries over HTTP,
// drain via Shutdown (final checkpoint), then reopen the store and find
// everything — rows AND schema — again, with an empty log tail to replay.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st.DB, Config{Checkpoint: st.Checkpoint})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	post := func(path, body string) (int, map[string]any) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var out map[string]any
		json.Unmarshal(raw, &out) //nolint:errcheck // asserted via fields below
		return resp.StatusCode, out
	}

	code, out := post("/v1/txn", `{"ops":[
		{"op":"insert","table":"kv","row":{"id":1,"v":10,"note":"a"}},
		{"op":"insert","table":"kv","row":{"id":2,"v":20}},
		{"op":"get","table":"kv","key":1,"cols":["v"]}]}`)
	if code != 200 || out["committed"] != true {
		t.Fatalf("txn: %d %v", code, out)
	}
	code, out = post("/v1/query", `{"table":"kv","aggregate":[{"op":"sum","col":"v"},{"op":"count"}]}`)
	if code != 200 {
		t.Fatalf("query: %d %v", code, out)
	}
	aggs := out["aggregates"].([]any)
	if got := aggs[0].(map[string]any)["value"].(float64); got != 30 {
		t.Fatalf("sum = %v, want 30", got)
	}

	// A conflicting insert aborts the whole batch atomically.
	code, _ = post("/v1/txn", `{"ops":[
		{"op":"insert","table":"kv","row":{"id":3,"v":30}},
		{"op":"insert","table":"kv","row":{"id":1,"v":99}}]}`)
	if code != http.StatusConflict {
		t.Fatalf("duplicate insert: status %d, want 409", code)
	}
	code, out = post("/v1/query", `{"table":"kv","where":[{"col":"id","op":"eq","value":3}]}`)
	if code != 200 || out["count"].(float64) != 0 {
		t.Fatalf("aborted batch leaked op: %d %v", code, out)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(resp.Body).Decode(&stats) //nolint:errcheck // fields asserted below
	resp.Body.Close()
	adm := stats["admission"].(map[string]any)
	if adm["txn_admitted"].(float64) < 2 {
		t.Fatalf("stats admission: %v", adm)
	}
	if stats["sessions_total"].(float64) < 1 {
		t.Fatalf("stats sessions: %v", stats)
	}
	wal := stats["wal"].(map[string]any)
	if wal["group_batches"].(float64) < 1 || wal["attached"] != true {
		t.Fatalf("stats wal: %v", wal)
	}

	taken := st.Checkpoint.Taken()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	if st.Checkpoint.Taken() != taken+1 {
		t.Fatal("drain did not write a final checkpoint")
	}

	st2, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer st2.Close()
	if got := dirNames(t, dir); got != "ckpt wal" {
		t.Fatalf("store directory holds %q, want only the log and the image", got)
	}
	if st2.Recovered.RedoneTxns != 0 {
		t.Fatalf("drained store still replayed %d txns from the tail", st2.Recovered.RedoneTxns)
	}
	tbl, ok := st2.DB.Table("kv")
	if !ok {
		t.Fatal("schema lost across restart")
	}
	if got := tbl.SecondaryIndexes(); len(got) != 1 || got[0] != "v" {
		t.Fatalf("secondary indexes lost: %v", got)
	}
	tx := st2.DB.Begin(lstore.ReadCommitted)
	row, found, err := tbl.Get(tx, 1, "v", "note")
	tx.Abort()
	if err != nil || !found || row["v"].Int() != 10 || row["note"].Str() != "a" {
		t.Fatalf("row lost across restart: %v %v %v", row, found, err)
	}
}

// dirNames lists dir's entries, sorted and space-separated.
func dirNames(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return strings.Join(names, " ")
}

// insertKV commits one kv row per key in [lo, hi], with v = 10*key.
func insertKV(t *testing.T, db *lstore.DB, lo, hi int) {
	t.Helper()
	tbl, _ := db.Table("kv")
	for i := lo; i <= hi; i++ {
		tx := db.Begin(lstore.ReadCommitted)
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(int64(i)), "v": lstore.Int(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertKVSum checks the kv table's row count and v-sum.
func assertKVSum(t *testing.T, st *Store, rows, sum int64) {
	t.Helper()
	tbl, _ := st.DB.Table("kv")
	gotSum, gotRows, err := tbl.Sum(st.DB.Now(), "v")
	if err != nil || gotRows != rows || gotSum != sum {
		t.Fatalf("recovered sum=%d rows=%d err=%v, want %d/%d", gotSum, gotRows, err, sum, rows)
	}
}

// TestCrashRestartRecovers kills the server without a drain (no final
// checkpoint) and reopens: the image plus the log tail must rebuild every
// committed transaction. The reopened store continues the same log, so a
// second crash after more commits loses nothing either.
func TestCrashRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st.DB, Config{Checkpoint: st.Checkpoint})
	for i := 1; i <= 10; i++ {
		rec, out := postJSON(t, srv.Handler(), "/v1/txn",
			fmt.Sprintf(`{"ops":[{"op":"insert","table":"kv","row":{"id":%d,"v":%d}}]}`, i, i*10))
		if rec.Code != 200 {
			t.Fatalf("txn %d: %d %v", i, rec.Code, out)
		}
	}
	// Crash: no Shutdown, no final checkpoint. (The DB object is simply
	// abandoned; its WAL file already holds every acked commit.)
	st.DB.Close()

	st2, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if st2.Recovered.RedoneTxns != 10 {
		t.Fatalf("replayed %d txns from the tail, want 10", st2.Recovered.RedoneTxns)
	}
	assertKVSum(t, st2, 10, 550)
	insertKV(t, st2.DB, 11, 12)
	st2.DB.Close() // crash again

	st3, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer st3.Close()
	if st3.Recovered.RedoneTxns != 12 {
		t.Fatalf("second reopen replayed %d txns, want 12 from one continued log", st3.Recovered.RedoneTxns)
	}
	assertKVSum(t, st3, 12, 780)
	if got := dirNames(t, dir); got != "ckpt wal" {
		t.Fatalf("store directory holds %q, want only the log and the image", got)
	}
}

// TestDoubleCrashDuringRecovery kills the process a second time inside the
// restart itself — at the log's tail cut, between image restore and redo,
// mid-redo, and before the checkpoint that makes a new spec table durable —
// and then reopens. Recovery writes nothing, so every kill leaves the same
// (image, log) pair behind, and the reopen must land on exactly the
// committed state, new table included.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	defer fault.Reset()
	for _, point := range []string{
		"wal.reopen.pre-cut",
		"recover.post-restore",
		"recover.pre-redo-txn",
		"server.open.pre-ddl-checkpoint",
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(storeConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			insertKV(t, st.DB, 1, 10)
			st.DB.Close() // crash 1: the 10 txns live only in the log

			// The restart also adds a spec table, so it must checkpoint.
			cfg := storeConfig(dir)
			cfg.Tables = append(cfg.Tables, TableSpec{Name: "extra", Key: "k",
				Columns: []lstore.Column{{Name: "k", Type: lstore.Int64}}})
			fault.Reset()
			fault.Trip(point, 1)
			if crash := fault.RunToCrash(func() { OpenStore(cfg) }); crash == nil { //nolint:errcheck // killed mid-open
				t.Fatalf("restart never reached %s", point)
			}

			st2, err := OpenStore(cfg)
			if err != nil {
				t.Fatalf("reopen after the double crash: %v", err)
			}
			assertKVSum(t, st2, 10, 550)
			if _, ok := st2.DB.Table("extra"); !ok {
				t.Fatal("spec table missing after reopen")
			}
			insertKV(t, st2.DB, 11, 11)
			st2.DB.Close() // crash 3: the new table exists only through the image

			st3, err := OpenStore(storeConfig(dir))
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer st3.Close()
			assertKVSum(t, st3, 11, 660)
			if _, ok := st3.DB.Table("extra"); !ok {
				t.Fatal("spec table not durable after its open-time checkpoint")
			}
		})
	}
}

// TestMissingImageRefusesPartialRecovery: the log holds only the tail above
// the image's watermark, so without the image it cannot rebuild the store —
// OpenStore must refuse loudly instead of silently serving a near-empty
// database. A torn image is refused too, and left in place: treating it as
// absent would let the bootstrap checkpoint overwrite the only copy.
func TestMissingImageRefusesPartialRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
		want   string
	}{
		{"missing", os.Remove, "no complete image"},
		{"torn", func(path string) error { return os.Truncate(path, 20) }, "checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := storeConfig(dir)
			st, err := OpenStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			insertKV(t, st.DB, 1, 3)
			st.DB.Close()
			if err := tc.damage(st.CkptFile); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(st.CkptFile)
			if _, err := OpenStore(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenStore with a %s image: err=%v, want a refusal mentioning %q", tc.name, err, tc.want)
			}
			if after, _ := os.ReadFile(st.CkptFile); !bytes.Equal(before, after) {
				t.Fatal("the refused open rewrote the image")
			}
		})
	}
}

// TestOpenStoreRefusesOldLayout: a directory written by the generation
// protocol of earlier versions must not be mistaken for a fresh store.
func TestOpenStoreRefusesOldLayout(t *testing.T) {
	for _, old := range []string{"wal.gen", "wal.000003"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, old), []byte("3\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenStore(storeConfig(dir))
		if err == nil || !strings.Contains(err.Error(), "old generation-tagged layout") {
			t.Fatalf("OpenStore beside %s: err=%v, want a refusal naming the old layout", old, err)
		}
		if got := dirNames(t, dir); got != old {
			t.Fatalf("refused open left %q behind, want only %s", got, old)
		}
	}
}

// TestDDLOverHTTPSurvivesCrash: tables created through the API are only
// durable through the post-DDL checkpoint — prove a crash (not a drain)
// still finds them.
func TestDDLOverHTTPSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st.DB, Config{Checkpoint: st.Checkpoint})
	rec, out := postJSON(t, srv.Handler(), "/v1/tables",
		`{"name":"events","key":"seq","columns":[{"name":"seq","type":"int"},{"name":"kind","type":"string"}]}`)
	if rec.Code != 200 {
		t.Fatalf("create table: %d %v", rec.Code, out)
	}
	rec, out = postJSON(t, srv.Handler(), "/v1/txn",
		`{"ops":[{"op":"insert","table":"events","row":{"seq":1,"kind":"boot"}}]}`)
	if rec.Code != 200 {
		t.Fatalf("insert into new table: %d %v", rec.Code, out)
	}
	st.DB.Close() // crash

	st2, err := OpenStore(storeConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	tbl, ok := st2.DB.Table("events")
	if !ok {
		t.Fatal("DDL'd table lost in crash: post-DDL checkpoint did not take")
	}
	tx := st2.DB.Begin(lstore.ReadCommitted)
	row, found, err := tbl.Get(tx, 1, "kind")
	tx.Abort()
	if err != nil || !found || row["kind"].Str() != "boot" {
		t.Fatalf("row in DDL'd table lost: %v %v %v", row, found, err)
	}
}

// TestOverloadShedsWrites: when the merge backlog crosses the watermark,
// new transactions get 429 + Retry-After while queries keep flowing; once
// the merge catches up, writes are admitted again.
func TestOverloadShedsWrites(t *testing.T) {
	db := lstore.Open()
	// RangeSize 64 (one tail block) lets the 64 inserts fill — and seal —
	// the first range so the later Merge() can actually consume the backlog.
	const rows = 64
	tbl, err := db.CreateTable("kv", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64},
		lstore.Column{Name: "v", Type: lstore.Int64},
	), lstore.TableOptions{DisableAutoMerge: true, RangeSize: rows})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxMergeBacklog: rows, MaxWALFlushLag: -1})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // teardown

	// Build a merge backlog the disabled merge will never drain.
	tx := db.Begin(lstore.ReadCommitted)
	for i := 1; i <= rows; i++ {
		if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(int64(i)), "v": lstore.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin(lstore.ReadCommitted)
	for i := 1; i <= rows; i++ {
		if err := tbl.Update(tx, int64(i), lstore.Row{"v": lstore.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if b := srv.mergeBacklog(); b <= rows {
		t.Fatalf("test setup: merge backlog %d, need > %d", b, rows)
	}

	rec, out := postJSON(t, srv.Handler(), "/v1/txn",
		`{"ops":[{"op":"insert","table":"kv","row":{"id":100,"v":1}}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded txn: %d %v, want 429", rec.Code, out)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if srv.overloadShed.Load() == 0 {
		t.Fatal("overload shed not counted")
	}
	// Reads are not shed by write-path watermarks.
	rec, out = postJSON(t, srv.Handler(), "/v1/query", `{"table":"kv","aggregate":[{"op":"count"}]}`)
	if rec.Code != 200 {
		t.Fatalf("query during overload: %d %v, want 200", rec.Code, out)
	}

	tbl.Merge() // drain the backlog
	rec, out = postJSON(t, srv.Handler(), "/v1/txn",
		`{"ops":[{"op":"insert","table":"kv","row":{"id":100,"v":1}}]}`)
	if rec.Code != 200 {
		t.Fatalf("txn after merge caught up: %d %v, want 200", rec.Code, out)
	}
}

// TestQueueFullSheds: a full per-class queue sheds with 429 and recovers
// when a slot frees; the other class's queue is unaffected.
func TestQueueFullSheds(t *testing.T) {
	db := lstore.Open()
	if _, err := db.CreateTable("kv", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64})); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{TxnQueue: 1, MaxMergeBacklog: -1, MaxWALFlushLag: -1})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // teardown

	if !srv.txnGate.tryAcquire() {
		t.Fatal("fresh gate refused a slot")
	}
	rec, out := postJSON(t, srv.Handler(), "/v1/txn",
		`{"ops":[{"op":"insert","table":"kv","row":{"id":1}}]}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %v, want 429", rec.Code, out)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Queries ride their own queue.
	rec, _ = postJSON(t, srv.Handler(), "/v1/query", `{"table":"kv","aggregate":[{"op":"count"}]}`)
	if rec.Code != 200 {
		t.Fatalf("query while txn queue full: %d, want 200", rec.Code)
	}
	srv.txnGate.release()
	rec, _ = postJSON(t, srv.Handler(), "/v1/txn",
		`{"ops":[{"op":"insert","table":"kv","row":{"id":1}}]}`)
	if rec.Code != 200 {
		t.Fatalf("txn after slot freed: %d, want 200", rec.Code)
	}
	if got := srv.txnGate.shed.Load(); got != 1 {
		t.Fatalf("txn shed counter = %d, want 1", got)
	}
}

// TestOverloadUnderConcurrentLoad floods a tiny queue from many clients:
// some requests must be shed with 429, everything admitted must commit,
// and admitted+shed must account for every request.
func TestOverloadUnderConcurrentLoad(t *testing.T) {
	db := lstore.Open()
	if _, err := db.CreateTable("kv", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64})); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{TxnQueue: 2, MaxMergeBacklog: -1, MaxWALFlushLag: -1})
	defer srv.Shutdown(context.Background()) //nolint:errcheck // teardown

	const clients, perClient = 16, 20
	var ok200, shed429 atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf(`{"ops":[{"op":"insert","table":"kv","row":{"id":%d}}]}`, c*perClient+i)
				req := httptest.NewRequest("POST", "/v1/txn", strings.NewReader(body))
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				switch rec.Code {
				case 200:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				default:
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := ok200.Load() + shed429.Load()
	if total != clients*perClient {
		t.Fatalf("accounted %d of %d requests", total, clients*perClient)
	}
	if ok200.Load() == 0 {
		t.Fatal("everything was shed — queue never admitted")
	}
	if got := srv.txnGate.admitted.Load() + srv.txnGate.shed.Load(); got != uint64(clients*perClient) {
		t.Fatalf("gate accounting %d, want %d", got, clients*perClient)
	}
	// Every 200 really committed.
	tbl, _ := db.Table("kv")
	n, err := tbl.Query().Count()
	if err != nil || n != int64(ok200.Load()) {
		t.Fatalf("committed rows %d (err %v), want %d", n, err, ok200.Load())
	}
}

// TestDrainRefusesNewWork: a draining server answers 503 everywhere new
// work could enter, including health checks (so load balancers stop
// routing to it).
func TestDrainRefusesNewWork(t *testing.T) {
	db := lstore.Open()
	srv := New(db, Config{})
	srv.draining.Store(true)
	for _, probe := range []struct{ method, path, body string }{
		{"POST", "/v1/txn", `{"ops":[{"op":"insert","table":"kv","row":{"id":1}}]}`},
		{"POST", "/v1/query", `{"table":"kv"}`},
		{"POST", "/v1/tables", `{"name":"x","key":"id","columns":[{"name":"id","type":"int"}]}`},
		{"GET", "/healthz", ""},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader(probe.body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while draining: %d, want 503", probe.method, probe.path, rec.Code)
		}
	}
	db.Close()
}

// waitAccepted blocks until srv has accepted a connection. The drain only
// waits on connections the server has accepted; a Shutdown that wins the
// race with Accept has nothing to wait for.
func waitAccepted(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if active, _ := srv.sessionCounts(); active > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server never accepted the connection")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrainTimeoutForcesClose: a client that never finishes its
// request outlasts the drain context; Shutdown must force the connection
// closed, confirm the request gates are idle, and still finish the full
// teardown (final checkpoint, DB close) instead of racing or hanging.
func TestShutdownDrainTimeoutForcesClose(t *testing.T) {
	db := lstore.Open()
	sink := &lstore.CheckpointBuffer{}
	srv := New(db, Config{Checkpoint: sink})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	// A slow client: the request never completes, so the connection stays
	// active and the graceful drain cannot finish.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/txn HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}

	waitAccepted(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "http drain") {
		t.Fatalf("Shutdown with a stuck client: err=%v, want http drain failure", err)
	}
	if <-serveDone != http.ErrServerClosed {
		t.Fatal("Serve did not return after forced close")
	}
	// The gates were idle (the stuck request was never admitted), so the
	// teardown must have completed: final checkpoint written, DB closed.
	if sink.Taken() != 1 {
		t.Fatalf("final checkpoint not written after forced close (taken=%d)", sink.Taken())
	}
	if _, err := db.CreateTable("late", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64})); err == nil {
		t.Fatal("DB still open after forced-close shutdown completed")
	}
}

// TestShutdownStuckHandlerLeavesDBOpen: if requests are still executing
// after the forced close (simulated by a held gate slot — a handler stuck
// inside the engine), Shutdown must NOT close the DB under them: it
// reports the failure and leaves the store usable.
func TestShutdownStuckHandlerLeavesDBOpen(t *testing.T) {
	db := lstore.Open()
	tbl, err := db.CreateTable("kv", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	sink := &lstore.CheckpointBuffer{}
	srv := New(db, Config{Checkpoint: sink})
	srv.forcedGrace = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // shut down below

	conn, err := net.Dial("tcp", l.Addr().String()) // keeps the drain from finishing
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/txn HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}
	if !srv.txnGate.tryAcquire() { // the "stuck handler"
		t.Fatal("fresh gate refused a slot")
	}
	waitAccepted(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "still executing") {
		t.Fatalf("Shutdown with stuck handler: err=%v, want still-executing failure", err)
	}
	if sink.Taken() != 0 {
		t.Fatal("final checkpoint written while requests were still executing")
	}
	// The DB must still be live: the stuck handler's transaction can finish.
	tx := db.Begin(lstore.ReadCommitted)
	if err := tbl.Insert(tx, lstore.Row{"id": lstore.Int(1)}); err != nil {
		t.Fatalf("DB closed under a still-executing handler: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv.txnGate.release()
	db.Close()
}

// TestSessionsTracked: connections served through a real listener carry
// per-connection session state, reported by /v1/stats and cleaned up when
// connections close.
func TestSessionsTracked(t *testing.T) {
	db := lstore.Open()
	if _, err := db.CreateTable("kv", lstore.NewSchema("id",
		lstore.Column{Name: "id", Type: lstore.Int64})); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // closed by Shutdown below
	base := "http://" + l.Addr().String()

	client := &http.Client{} // keep-alives on: one conn, many requests
	for i := 0; i < 3; i++ {
		resp, err := client.Post(base+"/v1/query", "application/json",
			bytes.NewReader([]byte(`{"table":"kv","aggregate":[{"op":"count"}]}`)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
	}
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(resp.Body).Decode(&stats) //nolint:errcheck // fields asserted below
	resp.Body.Close()
	if got := stats["sessions_active"].(float64); got < 1 {
		t.Fatalf("sessions_active = %v, want >= 1", got)
	}
	// Keep-alive means far fewer sessions than requests.
	if got := stats["sessions_total"].(float64); got > 3 {
		t.Fatalf("sessions_total = %v for 4 keep-alive requests, want <= 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// ConnState(StateClosed) fires on the connection goroutine, which may
	// trail Shutdown's return by a beat.
	deadline := time.Now().Add(2 * time.Second)
	for {
		active, _ := srv.sessionCounts()
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions_active = %d after shutdown, want 0", active)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
