// HTTP/JSON wire protocol. Values map naturally: Int64 columns are JSON
// integers (decoded via json.Number — no float rounding of large keys),
// String columns are JSON strings, null is null. Errors are always
// `{"error": "..."}` with a meaningful status: 400 malformed request, 404
// unknown table, 409 conflict (retryable: optimistic validation lost) or
// constraint violation, 429 shed (with Retry-After), 500 durability
// failures, 503 draining.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lstore"
)

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed; a broken client conn has nowhere to report
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	return dec.Decode(v)
}

// toValue converts a decoded JSON value into a typed engine value.
func toValue(v any) (lstore.Value, error) {
	switch x := v.(type) {
	case nil:
		return lstore.Null(), nil
	case string:
		return lstore.Str(x), nil
	case json.Number:
		i, err := x.Int64()
		if err != nil {
			return lstore.Null(), fmt.Errorf("value %q is not a 64-bit integer", x)
		}
		return lstore.Int(i), nil
	default:
		return lstore.Null(), fmt.Errorf("unsupported value type %T", v)
	}
}

func fromValue(v lstore.Value) any {
	switch {
	case v.IsNull():
		return nil
	case v.Kind() == lstore.String:
		return v.Str()
	default:
		return v.Int()
	}
}

func toRow(m map[string]any) (lstore.Row, error) {
	row := make(lstore.Row, len(m))
	for k, v := range m {
		val, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", k, err)
		}
		row[k] = val
	}
	return row, nil
}

func fromRow(row lstore.Row) map[string]any {
	out := make(map[string]any, len(row))
	for k, v := range row {
		out[k] = fromValue(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// POST /v1/txn — a batch of operations, one atomic transaction.

type txnRequest struct {
	// Isolation: "read-committed" (default), "snapshot", "serializable".
	Isolation string  `json:"isolation,omitempty"`
	Ops       []txnOp `json:"ops"`
}

type txnOp struct {
	Op    string         `json:"op"` // insert | update | delete | get
	Table string         `json:"table"`
	Key   *json.Number   `json:"key,omitempty"`
	Row   map[string]any `json:"row,omitempty"`  // insert
	Set   map[string]any `json:"set,omitempty"`  // update
	Cols  []string       `json:"cols,omitempty"` // get projection
}

type txnResponse struct {
	Committed bool             `json:"committed"`
	Results   []opResult       `json:"results"`
	BeginTime lstore.Timestamp `json:"begin_time"`
}

type opResult struct {
	Found *bool          `json:"found,omitempty"` // get only
	Row   map[string]any `json:"row,omitempty"`   // get only
}

func parseIsolation(s string) (lstore.IsolationLevel, error) {
	switch s {
	case "", "read-committed":
		return lstore.ReadCommitted, nil
	case "snapshot":
		return lstore.Snapshot, nil
	case "serializable":
		return lstore.Serializable, nil
	}
	return lstore.ReadCommitted, fmt.Errorf("unknown isolation level %q", s)
}

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if !s.admitTxn(w) {
		return
	}
	defer s.txnGate.release()
	if sess := sessionFrom(r.Context()); sess != nil {
		sess.txns.Add(1)
	}

	var req txnRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad transaction request: "+err.Error())
		return
	}
	if len(req.Ops) == 0 {
		jsonError(w, http.StatusBadRequest, "transaction has no operations")
		return
	}
	level, err := parseIsolation(req.Isolation)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}

	tx := s.db.Begin(level)
	resp := txnResponse{Results: make([]opResult, 0, len(req.Ops)), BeginTime: tx.BeginTime()}
	for i, op := range req.Ops {
		res, status, err := s.applyOp(tx, op)
		if err != nil {
			tx.Abort()
			jsonError(w, status, fmt.Sprintf("op %d (%s %s): %v", i, op.Op, op.Table, err))
			return
		}
		resp.Results = append(resp.Results, res)
	}
	if err := tx.Commit(); err != nil {
		switch {
		case errors.Is(err, lstore.ErrConflict):
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "retryable": true})
		case errors.Is(err, lstore.ErrDurabilityUnknown):
			// Committed in memory, durability in doubt: the one answer the
			// server must never soften into a clean 200 or a clean failure.
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error(), "durability_unknown": true})
		default:
			jsonError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	resp.Committed = true
	writeJSON(w, http.StatusOK, resp)
}

// applyOp runs one operation inside tx; an error aborts the whole batch
// with the returned status.
func (s *Server) applyOp(tx *lstore.Txn, op txnOp) (opResult, int, error) {
	tbl, ok := s.db.Table(op.Table)
	if !ok {
		return opResult{}, http.StatusNotFound, fmt.Errorf("unknown table")
	}
	key := func() (int64, error) {
		if op.Key == nil {
			return 0, fmt.Errorf("missing key")
		}
		return op.Key.Int64()
	}
	switch op.Op {
	case "insert":
		row, err := toRow(op.Row)
		if err != nil {
			return opResult{}, http.StatusBadRequest, err
		}
		if err := tbl.Insert(tx, row); err != nil {
			return opResult{}, opErrStatus(err), err
		}
		return opResult{}, 0, nil
	case "update":
		k, err := key()
		if err != nil {
			return opResult{}, http.StatusBadRequest, err
		}
		set, err := toRow(op.Set)
		if err != nil {
			return opResult{}, http.StatusBadRequest, err
		}
		if err := tbl.Update(tx, k, set); err != nil {
			return opResult{}, opErrStatus(err), err
		}
		return opResult{}, 0, nil
	case "delete":
		k, err := key()
		if err != nil {
			return opResult{}, http.StatusBadRequest, err
		}
		if err := tbl.Delete(tx, k); err != nil {
			return opResult{}, opErrStatus(err), err
		}
		return opResult{}, 0, nil
	case "get":
		k, err := key()
		if err != nil {
			return opResult{}, http.StatusBadRequest, err
		}
		row, found, err := tbl.Get(tx, k, op.Cols...)
		if err != nil {
			return opResult{}, opErrStatus(err), err
		}
		res := opResult{Found: &found}
		if found {
			res.Row = fromRow(row)
		}
		return res, 0, nil
	}
	return opResult{}, http.StatusBadRequest, fmt.Errorf("unknown op %q", op.Op)
}

func opErrStatus(err error) int {
	switch {
	case errors.Is(err, lstore.ErrConflict),
		errors.Is(err, lstore.ErrDuplicateKey),
		errors.Is(err, lstore.ErrNotFound):
		return http.StatusConflict
	case errors.Is(err, lstore.ErrTypeMismatch):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// ---------------------------------------------------------------------------
// POST /v1/query — the Query builder on the wire.

type queryRequest struct {
	Table  string            `json:"table"`
	Select []string          `json:"select,omitempty"`
	Where  []wirePred        `json:"where,omitempty"`
	Agg    []wireAgg         `json:"aggregate,omitempty"`
	At     *lstore.Timestamp `json:"at,omitempty"` // time travel
	// Limit caps returned rows (default 1000; negative = unlimited).
	Limit *int `json:"limit,omitempty"`
}

type wirePred struct {
	Col    string `json:"col"`
	Op     string `json:"op"` // eq ne lt le gt ge between is-null not-null
	Value  any    `json:"value,omitempty"`
	Value2 any    `json:"value2,omitempty"` // between upper bound
}

type wireAgg struct {
	Op  string `json:"op"` // sum count min max
	Col string `json:"col,omitempty"`
}

type queryResponse struct {
	Rows       []map[string]any `json:"rows,omitempty"`
	Count      int              `json:"count"`
	Truncated  bool             `json:"truncated,omitempty"`
	Aggregates []aggResult      `json:"aggregates,omitempty"`
}

type aggResult struct {
	Value any   `json:"value"`
	Rows  int64 `json:"rows"`
}

func (p wirePred) compile() (lstore.Predicate, error) {
	v, err := toValue(p.Value)
	if err != nil {
		return lstore.Predicate{}, fmt.Errorf("predicate on %q: %w", p.Col, err)
	}
	switch p.Op {
	case "eq":
		return lstore.Eq(p.Col, v), nil
	case "ne":
		return lstore.Ne(p.Col, v), nil
	case "lt":
		return lstore.Lt(p.Col, v), nil
	case "le":
		return lstore.Le(p.Col, v), nil
	case "gt":
		return lstore.Gt(p.Col, v), nil
	case "ge":
		return lstore.Ge(p.Col, v), nil
	case "between":
		v2, err := toValue(p.Value2)
		if err != nil {
			return lstore.Predicate{}, fmt.Errorf("predicate on %q: %w", p.Col, err)
		}
		return lstore.Between(p.Col, v, v2), nil
	case "is-null":
		return lstore.IsNull(p.Col), nil
	case "not-null":
		return lstore.NotNull(p.Col), nil
	}
	return lstore.Predicate{}, fmt.Errorf("unknown predicate op %q", p.Op)
}

func (a wireAgg) compile() (lstore.Agg, error) {
	switch a.Op {
	case "sum":
		return lstore.Sum(a.Col), nil
	case "count":
		return lstore.Count(), nil
	case "min":
		return lstore.Min(a.Col), nil
	case "max":
		return lstore.Max(a.Col), nil
	}
	return lstore.Agg{}, fmt.Errorf("unknown aggregate op %q", a.Op)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, s.queryGate) {
		return
	}
	defer s.queryGate.release()
	if sess := sessionFrom(r.Context()); sess != nil {
		sess.queries.Add(1)
	}

	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad query request: "+err.Error())
		return
	}
	tbl, ok := s.db.Table(req.Table)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown table %q", req.Table))
		return
	}
	q := tbl.Query()
	if len(req.Select) > 0 {
		q.Select(req.Select...)
	}
	for _, wp := range req.Where {
		pred, err := wp.compile()
		if err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		q.Where(pred)
	}
	if req.At != nil {
		q.At(*req.At)
	}

	if len(req.Agg) > 0 {
		aggs := make([]lstore.Agg, 0, len(req.Agg))
		for _, wa := range req.Agg {
			a, err := wa.compile()
			if err != nil {
				jsonError(w, http.StatusBadRequest, err.Error())
				return
			}
			aggs = append(aggs, a)
		}
		res, err := q.Aggregate(aggs...)
		if err != nil {
			jsonError(w, queryErrStatus(err), err.Error())
			return
		}
		resp := queryResponse{Aggregates: make([]aggResult, res.Len())}
		for i := range resp.Aggregates {
			resp.Aggregates[i] = aggResult{Value: fromValue(res.Value(i)), Rows: res.Rows(i)}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	limit := 1000
	if req.Limit != nil {
		limit = *req.Limit
	}
	var resp queryResponse
	err := q.Rows(func(rv *lstore.RowView) bool {
		if limit >= 0 && len(resp.Rows) >= limit {
			resp.Truncated = true
			return false
		}
		resp.Rows = append(resp.Rows, fromRow(rv.Row()))
		return true
	})
	if err != nil {
		jsonError(w, queryErrStatus(err), err.Error())
		return
	}
	resp.Count = len(resp.Rows)
	writeJSON(w, http.StatusOK, resp)
}

func queryErrStatus(err error) int {
	if errors.Is(err, lstore.ErrTypeMismatch) {
		return http.StatusBadRequest
	}
	// Anything else is the engine failing mid-execution (scan error,
	// poisoned state) — a server fault, not a malformed request.
	return http.StatusInternalServerError
}

// ---------------------------------------------------------------------------
// Tables: DDL and introspection.

type tableDecl struct {
	Name    string    `json:"name"`
	Key     string    `json:"key"`
	Columns []wireCol `json:"columns"`
	Indexes []string  `json:"indexes,omitempty"`
}

type wireCol struct {
	Name string `json:"name"`
	Type string `json:"type"` // int | string
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		jsonError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var decl tableDecl
	if err := decodeBody(r, &decl); err != nil {
		jsonError(w, http.StatusBadRequest, "bad table declaration: "+err.Error())
		return
	}
	cols := make([]lstore.Column, 0, len(decl.Columns))
	for _, c := range decl.Columns {
		switch c.Type {
		case "int":
			cols = append(cols, lstore.Column{Name: c.Name, Type: lstore.Int64})
		case "string":
			cols = append(cols, lstore.Column{Name: c.Name, Type: lstore.String})
		default:
			jsonError(w, http.StatusBadRequest, fmt.Sprintf("column %q: unknown type %q", c.Name, c.Type))
			return
		}
	}
	// One DDL at a time: the create and the checkpoint that makes it
	// durable must not interleave with another DDL's pair.
	s.ddlMu.Lock()
	defer s.ddlMu.Unlock()
	_, err := s.db.CreateTable(decl.Name, lstore.NewSchema(decl.Key, cols...),
		lstore.TableOptions{SecondaryIndexes: decl.Indexes})
	if err != nil {
		jsonError(w, http.StatusConflict, err.Error())
		return
	}
	// Table creation is not WAL-logged; the checkpoint image is the only
	// durable record of the schema. Fail loudly if it cannot be written —
	// a table that would silently vanish on restart is worse than a 500.
	if s.cfg.Checkpoint != nil {
		if _, err := s.db.CheckpointTo(s.cfg.Checkpoint); err != nil {
			jsonError(w, http.StatusInternalServerError,
				"table created but schema checkpoint failed (table will not survive restart): "+err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"created": decl.Name})
}

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	names := s.db.TableNames()
	decls := make([]tableDecl, 0, len(names))
	for _, name := range names {
		tbl, ok := s.db.Table(name)
		if !ok {
			continue
		}
		d := tableDecl{Name: name, Key: tbl.Key(), Indexes: tbl.SecondaryIndexes()}
		for _, c := range tbl.ColumnDefs() {
			tn := "int"
			if c.Type == lstore.String {
				tn = "string"
			}
			d.Columns = append(d.Columns, wireCol{Name: c.Name, Type: tn})
		}
		decls = append(decls, d)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": decls})
}

// ---------------------------------------------------------------------------
// GET /v1/stats, GET /healthz

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	active, total := s.sessionCounts()
	wi := s.db.WALInfo()
	walErr := ""
	if wi.Err != nil {
		walErr = wi.Err.Error()
	}
	tables := make(map[string]any)
	var backlog int64
	for _, name := range s.db.TableNames() {
		tbl, ok := s.db.Table(name)
		if !ok {
			continue
		}
		st := tbl.Stats()
		backlog += st.MergeBacklog
		tstats := map[string]any{
			"inserts":           st.Inserts,
			"updates":           st.Updates,
			"deletes":           st.Deletes,
			"point_reads":       st.PointReads,
			"scans":             st.Scans,
			"ww_conflicts":      st.WWConflicts,
			"tail_records":      st.TailRecords,
			"merges":            st.Merges,
			"merge_backlog":     st.MergeBacklog,
			"merge_queue_depth": st.MergeQueueDepth,
		}
		// Beyond-RAM base storage: present only when the table has a spill
		// attached, so all-resident deployments keep their stats shape.
		if st.PoolCapBytes > 0 || st.SpilledPages > 0 {
			tstats["pool"] = map[string]any{
				"hits":           st.PoolHits,
				"misses":         st.PoolMisses,
				"evictions":      st.PoolEvictions,
				"resident_bytes": st.PoolResidentBytes,
				"cap_bytes":      st.PoolCapBytes,
				"spilled_pages":  st.SpilledPages,
				"spill_errors":   st.SpillErrors,
			}
		}
		tables[name] = tstats
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_secs":     int64(time.Since(s.born).Seconds()),
		"draining":        s.draining.Load(),
		"sessions_active": active,
		"sessions_total":  total,
		"admission": map[string]any{
			"txn_queue_depth":   s.txnGate.depth(),
			"txn_queue_cap":     s.txnGate.cap(),
			"txn_admitted":      s.txnGate.admitted.Load(),
			"txn_shed":          s.txnGate.shed.Load(),
			"query_queue_depth": s.queryGate.depth(),
			"query_queue_cap":   s.queryGate.cap(),
			"query_admitted":    s.queryGate.admitted.Load(),
			"query_shed":        s.queryGate.shed.Load(),
			"overload_shed":     s.overloadShed.Load(),
			"merge_backlog":     backlog,
		},
		"wal": map[string]any{
			"attached":      wi.Attached,
			"appended":      wi.Appended,
			"last_lsn":      wi.LastLSN,
			"flushed_lsn":   wi.FlushedLSN,
			"flush_lag":     wi.LastLSN - wi.FlushedLSN,
			"truncated_lsn": wi.TruncatedLSN,
			"syncs":         wi.Syncs,
			"group_batches": wi.GroupBatches,
			"error":         walErr,
		},
		"tables": tables,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if wi := s.db.WALInfo(); wi.Err != nil {
		http.Error(w, "wal poisoned: "+wi.Err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
