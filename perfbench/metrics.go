package main

import (
	"errors"
	"fmt"
)

// metricDef names one reported metric and its unit. The lists below are the
// single definition BENCHMARK.json mirrors (main_test.go holds the two
// together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, each gated by a bound
// in BENCHMARK.json. Every workload reports every one of them; README.md
// gives each workload's meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "txn/s"},
	{"txn_p50_ms", "ms"},
	{"query_per_s", "q/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"restart_s", "s"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"live_heap_mb", "MiB"},
}

// spanNames are the spans a traced run records, around the benchmark's own
// calls into each layer.
var spanNames = []string{
	"txn", "api.get", "api.update", "api.commit", "query",
	"client.txn", "client.query", "server.handler", "wal.write", "wal.sync",
	"bufpool.read", "recovery.open", "first_query",
}

// perLayer are the traced run's metrics, grouped by the layer they measure.
// A workload whose layer does no work reports 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"failed_frac", "ratio"},
		// The transaction tail: printed on every run, but not gated, because
		// fsync tails on the host disk move it by up to 2x between identical
		// runs (README.md).
		{"txn_p99_ms", "ms"},

		// internal/server
		{"server.handler_ms.p50", "ms"},
		{"server.handler_ms.p99", "ms"},
		{"server.outside_ms.p50", "ms"},
		{"server.req_bytes_per_txn", "B/txn"},
		{"server.resp_bytes_per_txn", "B/txn"},
		{"server.shed", "count"},

		// internal/wal
		{"wal.sync_ms.p50", "ms"},
		{"wal.sync_ms.p99", "ms"},
		{"wal.syncs_per_commit", "ratio"},
		{"wal.commits_per_batch", "ratio"},
		{"wal.bytes_per_txn", "B/txn"},
		{"wal.busy_frac", "ratio"},

		// lstore API, txn, core apply
		{"api.get_us.p50", "us"},
		{"api.get_us.p99", "us"},
		{"api.update_us.p50", "us"},
		{"api.update_us.p99", "us"},
		{"api.commit_us.p50", "us"},
		{"api.commit_us.p99", "us"},
		{"core.tail_records_per_txn", "ratio"},
		{"txn.conflicts", "count"},

		// core merge
		{"merge.count", "count"},
		{"merge.records_per_merge", "ratio"},
		{"merge.backlog.max", "count"},
		{"merge.backlog.end", "count"},
		{"merge.queue_depth.max", "count"},
		{"merge.consumed_frac", "ratio"},

		// core scan
		{"scan.slow_slot_frac", "ratio"},
		{"scan.slots_per_query", "ratio"},
		{"scan.words_decoded_per_query", "ratio"},
		{"scan.words_skipped_frac", "ratio"},
		{"scan.rows_per_slot", "ratio"},
		{"query_shape.a_range_ms.p50", "ms"},
		{"query_shape.b_eq_ms.p50", "ms"},
		{"query_shape.c_range_ms.p50", "ms"},
		{"query_shape.point_get_ms.p50", "ms"},

		// internal/bufpool
		{"bufpool.hit_ratio", "ratio"},
		{"bufpool.misses_per_query", "ratio"},
		{"bufpool.evictions_per_query", "ratio"},
		{"bufpool.resident_bytes.max", "bytes"},
		{"bufpool.read_ms.p50", "ms"},
		{"bufpool.read_ms.p99", "ms"},
		{"bufpool.read_bytes_per_query", "B/q"},
		{"bufpool.append_ms.total", "ms"},

		// internal/compress
		{"compress.ratio", "ratio"},
		{"compress.raw_page_frac", "ratio"},

		// checkpoint
		{"checkpoint.ms", "ms"},
		{"checkpoint.image_bytes", "bytes"},

		// recovery
		{"recovery.redone_txns", "count"},
		{"recovery.checkpoint_rows", "count"},
		{"recovery.bytes_read", "bytes"},
		{"recovery.bytes_written", "bytes"},
		{"recovery.first_query_ms", "ms"},

		// Go runtime
		{"gc.cycles", "count"},
		{"gc.pause_ms.total", "ms"},
		{"gc.alloc_bytes_per_op", "B/op"},

		{"trace.spans", "count"},
	}
	for _, s := range spanNames {
		ms = append(ms, metricDef{"self_us." + s, "us"})
	}
	for _, m := range endToEnd {
		ms = append(ms, metricDef{"overhead." + m.name, m.unit})
	}
	return ms
}()

// errIncorrect marks a failed correctness check: the run reports
// correct=false and no metric.
var errIncorrect = errors.New("incorrect answer")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

// rate collects the throughput of short fixed runs of operations (chunks);
// the reported rate is their upper quartile (see quantile), or the
// whole-run rate for a trending sampler (e2e.queryTrend).
type rate struct {
	chunks    []float64
	ops, secs float64
}

func (r *rate) add(ops int, secs float64) {
	r.ops += float64(ops)
	r.secs += secs
	if secs > 0 {
		r.chunks = append(r.chunks, float64(ops)/secs)
	}
}

func (r *rate) merge(o rate) {
	r.ops += o.ops
	r.secs += o.secs
	r.chunks = append(r.chunks, o.chunks...)
}

func (r *rate) value() float64 { return quantile(r.chunks, 0.75) }

// e2e collects one pass's end-to-end measurements across its rounds.
// Latency samples and rate chunks pool across rounds; set-up and restart
// times, stored bytes and heap are reported as medians.
type e2e struct {
	setup, restart     []float64 // s per round / per open
	txnRate, queryRate rate
	stored, heap       []float64 // per round
	txn, query         samples
	attempted, failed  int64

	// queryTrend marks query latencies that climb through each round (the
	// htap_resident analyst slows as the merge backlog grows), so chunks are
	// not interchangeable and a quartile would pick one phase of the round:
	// query figures are then whole-run rate and pooled percentiles.
	queryTrend bool
}

// values applies the tail-sample rule and returns every end-to-end metric,
// plus txn_p99_ms. Latency percentiles are taken over chunks (chunkPct):
// transaction percentiles over chunks of 1000, where each p99 has 10
// samples beyond it, and query percentiles over chunks of 200, where each
// p95 has 10.
func (e *e2e) values() (map[string]float64, error) {
	txnSize, querySize := chunkSize(0.99), chunkSize(0.95)
	if e.txn.n() < txnSize || e.query.n() < querySize {
		return nil, fmt.Errorf("tail-sample rule: txn_p99_ms needs %d transactions and query_p95_ms %d queries, the run has %d and %d; run more operations",
			txnSize, querySize, e.txn.n(), e.query.n())
	}
	v := map[string]float64{
		"setup_s":                    median(e.setup),
		"txn_per_s":                  e.txnRate.value(),
		"txn_p50_ms":                 chunkPct(&e.txn, 0.50, txnSize),
		"txn_p99_ms":                 chunkPct(&e.txn, 0.99, txnSize),
		"query_per_s":                e.queryRate.value(),
		"query_p50_ms":               chunkPct(&e.query, 0.50, querySize),
		"query_p95_ms":               chunkPct(&e.query, 0.95, querySize),
		"restart_s":                  median(e.restart),
		"stored_bytes_per_user_byte": median(e.stored),
		"live_heap_mb":               median(e.heap),
	}
	if e.queryTrend {
		v["query_per_s"] = ratio(e.queryRate.ops, e.queryRate.secs)
		v["query_p50_ms"] = e.query.pct(0.50)
		v["query_p95_ms"] = e.query.pct(0.95)
	}
	return v, nil
}

// notes gives the sample basis printed next to each end-to-end metric.
func (e *e2e) notes() map[string]string {
	rounds := fmt.Sprintf("median of %d rounds", len(e.setup))
	n := map[string]string{
		"setup_s":                    rounds,
		"txn_per_s":                  fmt.Sprintf("upper quartile of %d chunks", len(e.txnRate.chunks)),
		"txn_p50_ms":                 chunkNote(e.txn.n(), chunkSize(0.99)),
		"txn_p99_ms":                 chunkNote(e.txn.n(), chunkSize(0.99)) + ", 10 beyond each; not gated",
		"query_per_s":                fmt.Sprintf("upper quartile of %d chunks", len(e.queryRate.chunks)),
		"query_p50_ms":               chunkNote(e.query.n(), chunkSize(0.95)),
		"query_p95_ms":               chunkNote(e.query.n(), chunkSize(0.95)) + ", 10 beyond each",
		"restart_s":                  fmt.Sprintf("median of %d opens", len(e.restart)),
		"stored_bytes_per_user_byte": rounds,
		"live_heap_mb":               rounds,
	}
	if e.queryTrend {
		n["query_per_s"] = fmt.Sprintf("%.0f queries over the whole run", e.queryRate.ops)
		n["query_p50_ms"] = fmt.Sprintf("n=%d, pooled", e.query.n())
		n["query_p95_ms"] = fmt.Sprintf("n=%d, pooled, %d beyond", e.query.n(), e.query.beyond(0.95))
	}
	return n
}

func chunkNote(n, size int) string {
	return fmt.Sprintf("n=%d, lower quartile of %d chunks of %d", n, n/size, size)
}
