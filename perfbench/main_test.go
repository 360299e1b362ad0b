package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lstore"
	"lstore/internal/server"
	"lstore/internal/workload"
)

func tinyBench(t *testing.T) *bench {
	return &bench{seed: 7, dir: t.TempDir(), sz: tinySizes(), env: baseEnv(7)}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to the program's own
// workload and metric lists.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and traced,
// and checks that every metric is printed by name with its unit and that
// the traced pass writes well-formed spans.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := execute(&out, tinyBench(t), w, false, ""); code != 0 {
				t.Fatalf("untraced run exited %d:\n%s", code, out.String())
			}
			res := lastResult(t, out.String())
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced result: %+v", res)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || v.Value <= 0 {
					t.Errorf("%s: got %+v, want a positive value in %s", m.name, v, m.unit)
				}
				if !strings.Contains(out.String(), m.name) {
					t.Errorf("%s not printed", m.name)
				}
			}
			if !strings.Contains(out.String(), "failed_frac") || !strings.Contains(out.String(), "GOMAXPROCS=") {
				t.Errorf("failed_frac or environment missing from output:\n%s", out.String())
			}

			traceDir := t.TempDir()
			out.Reset()
			if code := execute(&out, tinyBench(t), w, true, traceDir); code != 0 {
				t.Fatalf("traced run exited %d:\n%s", code, out.String())
			}
			res = lastResult(t, out.String())
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced result has %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s: got %+v, want unit %s", m.name, v, m.unit)
				}
			}
			checkSpanFile(t, filepath.Join(traceDir, w.name+"-seed7.jsonl"))
		})
	}
}

// wantParent names the span each child span must hang under.
var wantParent = map[string][]string{
	"api.get":        {"txn"},
	"api.update":     {"txn"},
	"api.commit":     {"txn"},
	"server.handler": {"client.txn", "client.query"},
	"bufpool.read":   {"query", "txn"},
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("malformed span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, n := range spanNames {
		known[n] = true
	}
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if !known[s.Name] {
			t.Errorf("unknown span name %q", s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		parent := byID[s.Parent].Name
		ok := false
		for _, want := range wantParent[s.Name] {
			ok = ok || parent == want
		}
		if !ok {
			t.Errorf("span %s has parent %s", s.Name, parent)
		}
	}
}

func TestTailSampleRule(t *testing.T) {
	for _, q := range []float64{0.99, 0.95} {
		var s samples
		for i := 0; i < chunkSize(q); i++ {
			s.add(time.Duration(i) * time.Microsecond)
		}
		if s.beyond(q) != minTail {
			t.Errorf("a chunk of %d has %d samples beyond its %v-quantile, want %d", s.n(), s.beyond(q), q, minTail)
		}
	}
	var e e2e
	for i := 0; i < chunkSize(0.99)-1; i++ {
		e.txn.add(time.Microsecond)
	}
	for i := 0; i < chunkSize(0.95); i++ {
		e.query.add(time.Millisecond)
	}
	if _, err := e.values(); err == nil {
		t.Fatalf("%d transactions gave a p99", e.txn.n())
	}
	e.txn.add(time.Microsecond)
	if _, err := e.values(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanCheckRejectsOrphans(t *testing.T) {
	spans := []span{{Trace: 1, ID: 1, Name: "txn", End: 5}, {Trace: 1, ID: 2, Parent: 3, Name: "api.get", End: 1}}
	if err := checkSpans(spans); err == nil {
		t.Fatal("a span with a missing parent passed")
	}
}

func wantIncorrect(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errIncorrect) {
		t.Errorf("%s: checker accepted a wrong expected value (err %v)", what, err)
	}
}

// TestCheckersRejectWrongExpectations hands each correctness checker a
// deliberately wrong expected value; the program is unchanged.
func TestCheckersRejectWrongExpectations(t *testing.T) {
	t.Run("model", func(t *testing.T) {
		db := lstore.Open()
		defer db.Close()
		tbl, err := db.CreateTable("t", wideSchema())
		if err != nil {
			t.Fatal(err)
		}
		m := newModel(1, 512)
		if err := m.load(db, tbl); err != nil {
			t.Fatal(err)
		}
		if err := m.verify(tbl); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin(lstore.ReadCommitted)
		row, found, err := tbl.Get(tx, 9, "c3")
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit() //nolint:errcheck // read-only
		m.set(9, 3, m.at(9, 3)+1)
		wantIncorrect(t, "final Rows pass", m.verify(tbl))
		wantIncorrect(t, "in-transaction get", m.checkRow(9, []int{3}, row, found))
		wantIncorrect(t, "range query", rangeSum(tbl, 0, 513))
	})

	t.Run("olap", func(t *testing.T) {
		d := genOLAP(1, 8192)
		db := lstore.Open()
		defer db.Close()
		tbl, err := db.CreateTable("t", olapSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.load(db, tbl, 0, d.rows); err != nil {
			t.Fatal(err)
		}
		d.sumCByA[d.aSpan]++ // a-range [0, aSpan) expects one more
		_, err = d.aRange(tbl, 0)
		wantIncorrect(t, "a-range SUM", err)
		d.cntB[3]--
		_, err = d.bEq(tbl, 3)
		wantIncorrect(t, "b-equality COUNT", err)
		d.sumAByC[d.cSpan]++
		_, err = d.cRange(tbl, 0)
		wantIncorrect(t, "c-range SUM", err)
		d.a[42]++
		wantIncorrect(t, "point get", d.pointGet(db, tbl, 42))
		wantIncorrect(t, "final Rows pass", d.verify(tbl))
	})

	t.Run("serve", func(t *testing.T) {
		m := newModel(1, 256)
		db := lstore.Open()
		tbl, err := db.CreateTable("t", wideSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.load(db, tbl); err != nil {
			t.Fatal(err)
		}
		srv := server.New(db, server.Config{})
		defer srv.Shutdown(context.Background()) //nolint:errcheck // test teardown
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln) //nolint:errcheck // closed below
		defer hs.Close()
		c := &client{hc: &http.Client{}, base: "http://" + ln.Addr().String(), p: &pass{bench: tinyBench(t)}}
		defer c.hc.CloseIdleConnections()
		if err := c.verifyAll(m); err != nil {
			t.Fatal(err)
		}
		ops := []workload.Op{{Key: 100, Cols: []int{5}}}
		if err := c.txn(m, ops); err != nil {
			t.Fatal(err)
		}
		m.set(100, 5, m.at(100, 5)-1)
		wantIncorrect(t, "served get", c.txn(m, ops))
		wantIncorrect(t, "final served pass", c.verifyAll(m))
	})

	t.Run("restart from log", func(t *testing.T) {
		p := &pass{bench: tinyBench(t), layer: map[string]float64{}}
		m := newModel(1, 512)
		walPath := filepath.Join(p.dir, "wal")
		wf, err := lstore.OpenWALFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer wf.Close()
		db := lstore.Open(lstore.WithWAL(wf, nil))
		defer db.Close()
		tbl, err := db.CreateTable("t", wideSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.load(db, tbl); err != nil {
			t.Fatal(err)
		}
		if err := p.restartFromLog(walPath, m.rows, 1, m, true); err != nil {
			t.Fatal(err)
		}
		wantIncorrect(t, "redone transaction count", p.restartFromLog(walPath, m.rows, 2, m, false))
		m.set(3, 1, m.at(3, 1)+1)
		wantIncorrect(t, "recovered rows", p.restartFromLog(walPath, m.rows, 1, m, true))
	})

	t.Run("restart from image", func(t *testing.T) {
		p := &pass{bench: tinyBench(t), layer: map[string]float64{}}
		m := newModel(1, 512)
		db := lstore.Open()
		defer db.Close()
		tbl, err := db.CreateTable("t", wideSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.load(db, tbl); err != nil {
			t.Fatal(err)
		}
		ir := imageRestart{rows: m.rows, userBytes: 1, check: m.verify,
			firstQuery: func(t *lstore.Table) error { return rangeSum(t, 0, 51) }}
		if err := p.restartFromImage(db, ir); err != nil {
			t.Fatal(err)
		}
		ir.rows++
		wantIncorrect(t, "restored row count", p.restartFromImage(db, ir))
		ir.rows--
		m.set(3, 1, m.at(3, 1)+1)
		wantIncorrect(t, "recovered rows", p.restartFromImage(db, ir))
	})

	t.Run("restart", func(t *testing.T) {
		p := &pass{bench: tinyBench(t), layer: map[string]float64{}}
		p.sz.restartRows, p.sz.restartOpens, p.sz.restartQueries = 1024, 1, 1
		rows := p.sz.restartRows
		m := newModel(1, rows)
		dir, err := p.roundDir("store")
		if err != nil {
			t.Fatal(err)
		}
		st, err := server.OpenStore(storeConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := st.DB.Table("t")
		if err := m.load(st.DB, tbl); err != nil {
			t.Fatal(err)
		}
		if _, err := st.DB.CheckpointTo(st.Checkpoint); err != nil {
			t.Fatal(err)
		}
		w, err := p.writer(st.DB, tbl, m, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		crash := filepath.Join(p.dir, "crash")
		if err := copyDir(dir, crash); err != nil {
			t.Fatal(err)
		}
		st.Close()
		rng := rand.New(rand.NewSource(1))
		var q samples
		if err := p.openCopy(crash, 0, rows, w.committed, m, rng, &q, 0, 0); err != nil {
			t.Fatal(err)
		}
		wantIncorrect(t, "redone transaction count", p.openCopy(crash, 0, rows, w.committed+1, m, rng, &q, 0, 0))
		m.set(3, 1, m.at(3, 1)+1)
		wantIncorrect(t, "recovered rows", p.openCopy(crash, 0, rows, w.committed, m, rng, &q, 0, 0))
	})
}
