// lstore-serve runs an L-Store database as a network service: HTTP/JSON
// transactions and queries over a file-backed WAL (group commit) and an
// atomically-replaced checkpoint image, with admission control shedding
// load when the engine falls behind.
//
// Usage:
//
//	lstore-serve -listen :7433 -wal /data/lstore.wal -checkpoint /data/lstore.ckpt \
//	    -table "name=kv key=id cols=id:int,v:int" -checkpoint-every 30s
//
// Endpoints: POST /v1/txn (atomic op batch), POST /v1/query (filtered
// scans and aggregates), POST/GET /v1/tables (DDL, schema listing),
// GET /v1/stats (queues, shed counts, WAL and merge gauges), GET /healthz.
//
// SIGTERM/SIGINT triggers a graceful drain: stop admitting, finish
// in-flight requests, flush the WAL, write a final checkpoint, exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lstore"
	"lstore/internal/server"
)

type tableFlags []server.TableSpec

func (t *tableFlags) String() string { return fmt.Sprintf("%d tables", len(*t)) }

func (t *tableFlags) Set(s string) error {
	spec, err := parseTableSpec(s)
	if err != nil {
		return err
	}
	*t = append(*t, spec)
	return nil
}

// parseTableSpec parses "name=kv key=id cols=id:int,v:string index=v".
func parseTableSpec(s string) (server.TableSpec, error) {
	var spec server.TableSpec
	for _, field := range strings.Fields(s) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("table spec field %q is not key=value", field)
		}
		switch k {
		case "name":
			spec.Name = v
		case "key":
			spec.Key = v
		case "cols":
			for _, col := range strings.Split(v, ",") {
				cn, ct, ok := strings.Cut(col, ":")
				if !ok {
					return spec, fmt.Errorf("column %q is not name:type", col)
				}
				switch ct {
				case "int":
					spec.Columns = append(spec.Columns, lstore.Column{Name: cn, Type: lstore.Int64})
				case "string":
					spec.Columns = append(spec.Columns, lstore.Column{Name: cn, Type: lstore.String})
				default:
					return spec, fmt.Errorf("column %q: unknown type %q (int or string)", cn, ct)
				}
			}
		case "index":
			spec.Indexes = append(spec.Indexes, strings.Split(v, ",")...)
		default:
			return spec, fmt.Errorf("unknown table spec field %q", k)
		}
	}
	if spec.Name == "" || spec.Key == "" || len(spec.Columns) == 0 {
		return spec, fmt.Errorf("table spec needs name=, key= and cols=")
	}
	return spec, nil
}

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7433", "listen address")
		walPath     = flag.String("wal", "", "WAL file (required; continued across restarts)")
		ckptPath    = flag.String("checkpoint", "", "checkpoint image file (required; atomically replaced by each checkpoint)")
		ckptEvery   = flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint cadence (0 = only DDL/drain checkpoints)")
		txnQueue    = flag.Int("txn-queue", 64, "max in-flight transactions before shedding")
		queryQueue  = flag.Int("query-queue", 64, "max in-flight queries before shedding")
		maxBacklog  = flag.Int64("max-merge-backlog", 1<<16, "shed transactions above this summed merge backlog (negative = off)")
		maxWALLag   = flag.Int64("max-wal-lag", 1<<16, "shed transactions above this WAL flush lag in records (negative = off)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		noGroup     = flag.Bool("no-group-commit", false, "one WAL flush (and fsync) per commit instead of group commit")
		drainWithin = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests at shutdown")
	)
	var tables tableFlags
	flag.Var(&tables, "table", `table to create if absent: "name=kv key=id cols=id:int,v:int index=v" (repeatable)`)
	flag.Parse()

	if *walPath == "" || *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "lstore-serve: -wal and -checkpoint are required")
		os.Exit(2)
	}

	st, err := server.OpenStore(server.StoreConfig{
		WALPath:         *walPath,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Tables:          tables,
		NoGroupCommit:   *noGroup,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lstore-serve: open store: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lstore-serve: store open (%d checkpoint rows, %d txns replayed from %s), tables: %s\n",
		st.Recovered.CheckpointRows, st.Recovered.RedoneTxns, *walPath,
		strings.Join(st.DB.TableNames(), ", "))

	srv := server.New(st.DB, server.Config{
		TxnQueue:        *txnQueue,
		QueryQueue:      *queryQueue,
		MaxMergeBacklog: *maxBacklog,
		MaxWALFlushLag:  *maxWALLag,
		RetryAfter:      *retryAfter,
		Checkpoint:      st.Checkpoint,
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lstore-serve: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lstore-serve: listening on %s\n", l.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Printf("lstore-serve: %v — draining (stop admitting, flush, final checkpoint)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWithin)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "lstore-serve: serve: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "lstore-serve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("lstore-serve: clean shutdown")
}
