// lstore-bench regenerates the evaluation of the L-Store paper (§6): every
// figure and table, at a configurable machine scale.
//
// Usage:
//
//	go run ./cmd/lstore-bench -experiment fig7a
//	go run ./cmd/lstore-bench -experiment all -duration 2s -rows 262144
//
// Experiments: fig7a fig7b fig7c (scalability under low/medium/high
// contention), fig8 (scan time vs merge batch), table7 (scan comparison),
// fig9a fig9b (read/write-ratio sweeps), fig10a fig10c (mixed OLTP+OLAP),
// table8 (row vs column scans) and table9 (row vs column point reads).
// Serving, beyond-RAM scans and restart are measured by the repository
// benchmark in perfbench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lstore/internal/bench"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id or 'all' ("+strings.Join(bench.ExperimentIDs, " ")+")")
		rows        = flag.Int("rows", 65536, "preloaded table size (paper: 10M)")
		duration    = flag.Duration("duration", time.Second, "measurement window per cell")
		rangeSize   = flag.Int("range", 4096, "L-Store update-range size (power of two)")
		mergeBatch  = flag.Int("merge-batch", 0, "L-Store merge batch (default range/2)")
		scanWorkers = flag.Int("scan-workers", 0, "L-Store scan worker pool (0 = GOMAXPROCS-bounded default)")
		threads     = flag.String("threads", "1,2,4,8,16,22", "update-thread grid for fig7")
		jsonPath    = flag.String("json", "", "also write machine-readable results (BENCH_*.json trajectory) to this path")
	)
	flag.Parse()

	grid, err := parseInts(*threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -threads: %v\n", err)
		os.Exit(2)
	}
	opts := bench.Options{
		TableSize:   *rows,
		Duration:    *duration,
		Threads:     grid,
		RangeSize:   *rangeSize,
		MergeBatch:  *mergeBatch,
		ScanWorkers: *scanWorkers,
		Out:         os.Stdout,
	}
	if *jsonPath != "" {
		opts.Report = bench.NewReport(opts)
	}

	fmt.Printf("L-Store benchmark harness — %d rows, %v per cell, GOMAXPROCS=%d\n",
		*rows, *duration, runtime.GOMAXPROCS(0))
	fmt.Printf("(paper testbed: 2x6-core Xeon E5-2430, 10M-row active sets; shapes, not absolutes, transfer)\n\n")

	ids := bench.ExperimentIDs
	if *experiment != "all" {
		if _, ok := bench.Experiments[*experiment]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %s or all\n",
				*experiment, strings.Join(bench.ExperimentIDs, " "))
			os.Exit(2)
		}
		ids = []string{*experiment}
	}
	for _, id := range ids {
		start := time.Now()
		if err := bench.Experiments[id](opts); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if opts.Report != nil {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		werr := opts.Report.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, werr)
			os.Exit(1)
		}
		fmt.Printf("wrote %d samples to %s\n", len(opts.Report.Samples), *jsonPath)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
