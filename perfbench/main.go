// Command perfbench is the repository's benchmark. It runs one of four
// fixed-work workloads through the public surfaces (package lstore and
// internal/server), checks every answer, and prints the end-to-end metrics;
// with -trace 1 it instead prints the per-layer metrics of a traced pass,
// each layer's self time, and the tracing overhead. README.md records why
// each workload exists and which layer metric should move which end-to-end
// metric on which workload.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload htap_resident --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"lstore"
)

// sizes fixes the work of one run. Every client loop runs a fixed operation
// count, never a fixed time window; the counts scale with -seconds so that a
// run's timed phases last about that long on a 2-core machine.
type sizes struct {
	rounds int // independent set-ups per run; set-up and restart times are medians over them

	htapRows, htapTxns int // table rows; writer transactions per round

	serveRows, serveReqs int // table rows; requests per connection per round

	olapRows, olapCycles, olapGets int // table rows; analyst cycles per round; point-get transactions per cycle

	restartRows, restartTxns, restartOpens, restartQueries int // rows; txns after the checkpoint (the log tail, fixed); opens per round; queries per open
}

// Nominal rates on a 2-core machine, used only to turn -seconds into fixed
// operation counts.
const (
	htapTxnsPerSec     = 25000
	serveReqsPerSec    = 1250 // per connection
	olapCyclesPerSec   = 33
	restartOpensPerSec = 3
)

func fullSizes(seconds int) sizes {
	const rounds = 3
	per := func(rate int) int { return max(1, rate*seconds/rounds) }
	return sizes{
		rounds:   rounds,
		htapRows: 262144, htapTxns: per(htapTxnsPerSec),
		serveRows: 65536, serveReqs: per(serveReqsPerSec),
		olapRows: 1 << 20, olapCycles: per(olapCyclesPerSec), olapGets: 32,
		restartRows: 65536, restartTxns: 4000, restartOpens: per(restartOpensPerSec), restartQueries: 100,
	}
}

// tinySizes is the smallest work that still satisfies the tail-sample rule
// (the benchmark's own tests run it).
func tinySizes() sizes {
	return sizes{
		rounds:   1,
		htapRows: 8192, htapTxns: 15000,
		serveRows: 4096, serveReqs: 1200,
		olapRows: 65536, olapCycles: 220, olapGets: 8,
		restartRows: 4096, restartTxns: 1100, restartOpens: 3, restartQueries: 80,
	}
}

// bench is one invocation: inputs derive from seed alone.
type bench struct {
	seed  int64
	dir   string // scratch directory for stores; removed by the caller
	sz    sizes
	env   map[string]string // effective engine options, reported in the output
	round int
}

func (b *bench) roundSeed() int64 { return b.seed*1000 + int64(b.round) }

// roundDir returns a fresh directory for one store.
func (b *bench) roundDir(name string) (string, error) {
	d := filepath.Join(b.dir, fmt.Sprintf("r%d-%s", b.round, name))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// pass is one execution of a workload's rounds, traced or not.
type pass struct {
	*bench
	tr    *tracer // nil when untraced
	e     e2e
	layer map[string]float64
}

type workloadDef struct {
	name string
	run  func(p *pass) error
}

// workloads, in BENCHMARK.json's order; README.md records why each exists.
var workloads = []workloadDef{
	{"htap_resident", runHTAP},
	{"serve_durable", runServe},
	{"olap_spilled", runOLAP},
	{"restart", runRestart},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runPass runs every round of w.
func runPass(b *bench, w workloadDef, tr *tracer) (*pass, error) {
	p := &pass{bench: b, tr: tr, layer: make(map[string]float64)}
	for b.round = 0; b.round < b.sz.rounds; b.round++ {
		// Start every round from the same state: no garbage left by the
		// last round, and no dirty pages of earlier writes (this run's or a
		// previous one's) for the kernel to flush under a timed fsync.
		runtime.GC()
		syscall.Sync()
		if err := w.run(p); err != nil {
			return p, err
		}
	}
	return p, nil
}

// outcome is what one invocation prints.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64 // untraced pass
	notes             map[string]string
	layer             map[string]float64 // traced pass; nil when untraced
	spans             []span
}

// run executes the workload: one untraced pass, plus a traced pass when
// trace is set (the per-layer metrics come from the traced pass, and the
// difference between the two passes is the tracing overhead).
func run(b *bench, w workloadDef, trace bool) (*outcome, error) {
	p, err := runPass(b, w, nil)
	if err != nil {
		return nil, err
	}
	vals, err := p.e.values()
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: p.e.attempted, failed: p.e.failed, e2e: vals, notes: p.e.notes()}
	if !trace {
		return o, nil
	}
	tp, err := runPass(b, w, newTracer())
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	tvals, err := tp.e.values()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	o.attempted += tp.e.attempted
	o.failed += tp.e.failed
	o.spans = tp.tr.snapshot()
	if err := checkSpans(o.spans); err != nil {
		return nil, err
	}
	o.layer = tp.layer
	o.layer["failed_frac"] = ratio(float64(tp.e.failed), float64(tp.e.attempted))
	o.layer["txn_p99_ms"] = tvals["txn_p99_ms"]
	o.layer["trace.spans"] = float64(len(o.spans))
	self := selfTimes(o.spans)
	for _, s := range spanNames {
		o.layer["self_us."+s] = self[s]
	}
	for _, m := range endToEnd {
		o.layer["overhead."+m.name] = tvals[m.name] - vals[m.name]
	}
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable report and, last, the one-line JSON result.
func (o *outcome) print(w io.Writer, b *bench, name string, trace bool) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v\n", name, b.seed, trace)
	keys := make([]string, 0, len(b.env))
	for k := range b.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	env := make([]string, 0, len(keys))
	for _, k := range keys {
		env = append(env, k+"="+b.env[k])
	}
	fmt.Fprintf(w, "# env: %s\n", strings.Join(env, " "))
	fmt.Fprintln(w, "# flush policy (serve_durable, restart): group commit on (the default); file-backed WAL on the local disk,"+
		" one fsync per leader flush; latencies are this machine's, not a device's")
	fmt.Fprintln(w, "# load: closed loop, fixed operation counts, at most nproc client goroutines")
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %14.4f %-6s (%s)\n", m.name, o.e2e[m.name], m.unit, o.notes[m.name])
		if !trace {
			res.Metrics[m.name] = metricValue{o.e2e[m.name], m.unit}
		}
	}
	fmt.Fprintf(w, "%-28s %14.4f %-6s (%s)\n", "txn_p99_ms", o.e2e["txn_p99_ms"], "ms", o.notes["txn_p99_ms"])
	fmt.Fprintf(w, "%-28s %14.4f %-6s (%d failed of %d attempted)\n", "failed_frac",
		ratio(float64(o.failed), float64(o.attempted)), "ratio", o.failed, o.attempted)
	if trace {
		fmt.Fprintln(w, "# per-layer metrics (traced pass)")
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-36s %16.4f %s\n", m.name, o.layer[m.name], m.unit)
			res.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	name := flag.String("workload", "", "workload: htap_resident, serve_durable, olap_spilled or restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phases, which sets the fixed operation counts")
	trace := flag.Int("trace", 0, "1 runs an extra traced pass and prints per-layer metrics")
	dir := flag.String("dir", "", "scratch directory for stores (default: a temporary directory)")
	traceOut := flag.String("trace-out", "", "directory for the traced pass's span file")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// GOMAXPROCS = nproc, whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())

	scratch := *dir
	if scratch == "" {
		d, err := os.MkdirTemp("", "perfbench")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(d)
		scratch = d
	}
	b := &bench{seed: *seed, dir: scratch, sz: fullSizes(*seconds), env: baseEnv(*seed)}
	os.Exit(execute(os.Stdout, b, w, *trace == 1, *traceOut))
}

// execute runs and prints one invocation and returns the exit code.
func execute(out io.Writer, b *bench, w workloadDef, trace bool, traceOut string) int {
	o, err := run(b, w, trace)
	if errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		line, _ := json.Marshal(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		fmt.Fprintln(out, string(line))
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if trace && traceOut != "" {
		path := filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.jsonl", w.name, b.seed))
		if err := writeSpans(path, o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(out, "# spans: %s\n", path)
	}
	if err := o.print(out, b, w.name, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// noteEngine records a table's effective engine options. RangeSize is
// inferred from the range count; MergeBatch is not observable and stays at
// its documented default.
func (b *bench) noteEngine(tbl *lstore.Table, rows int) {
	st := tbl.Stats()
	rs := 1
	for rs*len(tbl.Lineage()) < rows {
		rs <<= 1
	}
	b.env["RangeSize"] = fmt.Sprint(rs)
	b.env["MergeBatch"] = fmt.Sprintf("%d(default RangeSize/2)", rs/2)
	b.env["MergeWorkers"] = fmt.Sprint(st.MergeWorkers)
	b.env["ScanWorkers"] = fmt.Sprint(st.ScanWorkers)
	b.env["PoolBytes"] = "none"
	if st.PoolCapBytes > 0 {
		b.env["PoolBytes"] = fmt.Sprint(st.PoolCapBytes)
	}
}

// baseEnv records the environment every output states.
func baseEnv(seed int64) map[string]string {
	return map[string]string{
		"seed":       fmt.Sprint(seed),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
}
