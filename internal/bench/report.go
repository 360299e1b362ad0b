// Machine-readable benchmark results. cmd/lstore-bench's -json flag attaches
// a Report to the Options it runs; every experiment records one Sample per
// measured cell alongside its printed row, and the CLI writes the collected
// report to disk so the repo can accumulate a BENCH_*.json perf trajectory
// across PRs.
package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// Sample is one measured cell of one experiment: a (system, parameters)
// point with whichever metrics that experiment produces.
type Sample struct {
	Experiment string `json:"experiment"`
	System     string `json:"system"`
	// Labels carries the experiment's swept parameters (threads,
	// merge_batch, read_pct, scan_threads, pct_cols, ...).
	Labels map[string]int `json:"labels,omitempty"`

	TxnsPerSec  float64 `json:"txns_per_sec,omitempty"`
	ScansPerSec float64 `json:"scans_per_sec,omitempty"`
	ScanMillis  float64 `json:"scan_ms,omitempty"`
}

// Report aggregates the samples of one harness invocation plus the knobs
// that shaped them.
type Report struct {
	Timestamp  string `json:"timestamp"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Rows        int    `json:"rows"`
	DurationMS  int64  `json:"duration_ms"`
	RangeSize   int    `json:"range_size"`
	MergeBatch  int    `json:"merge_batch"`
	ScanWorkers int    `json:"scan_workers"`
	GoVersion   string `json:"go_version"`

	Samples []Sample `json:"samples"`
}

// NewReport stamps a report with the run configuration.
func NewReport(o Options) *Report {
	o = o.withDefaults()
	return &Report{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Rows:        o.TableSize,
		DurationMS:  o.Duration.Milliseconds(),
		RangeSize:   o.RangeSize,
		MergeBatch:  o.MergeBatch,
		ScanWorkers: o.ScanWorkers,
		GoVersion:   runtime.Version(),
	}
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// record appends a sample when a report is attached. Experiments run
// sequentially, so no locking is needed.
func (o Options) record(s Sample) {
	if o.Report != nil {
		o.Report.Samples = append(o.Report.Samples, s)
	}
}

// scanMS converts a scan latency to the milliseconds the tables print.
func scanMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
