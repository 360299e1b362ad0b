package lstore

import (
	"fmt"

	"lstore/internal/core"
	"lstore/internal/types"
	"lstore/internal/wal"
)

// Table is one L-Store table.
type Table struct {
	db     *DB
	name   string
	id     uint64
	store  *core.Store
	schema types.Schema
}

// Name returns the table name.
func (tb *Table) Name() string { return tb.name }

// Key returns the primary-key column name.
func (tb *Table) Key() string { return tb.schema.Cols[tb.schema.Key].Name }

// ColumnDefs returns the column declarations in schema order.
func (tb *Table) ColumnDefs() []Column {
	out := make([]Column, tb.schema.NumCols())
	for i, c := range tb.schema.Cols {
		out[i] = Column{Name: c.Name, Type: c.Type}
	}
	return out
}

// SecondaryIndexes returns the names of columns with declared secondary
// indexes, in column order.
func (tb *Table) SecondaryIndexes() []string {
	var out []string
	for _, ci := range tb.store.Config().SecondaryIndexColumns {
		out = append(out, tb.schema.Cols[ci].Name)
	}
	return out
}

// Columns returns the column names in schema order.
func (tb *Table) Columns() []string {
	out := make([]string, tb.schema.NumCols())
	for i, c := range tb.schema.Cols {
		out[i] = c.Name
	}
	return out
}

func (tb *Table) colIndexes(cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, tb.schema.NumCols())
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, name := range cols {
		ci := tb.schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("lstore: table %q has no column %q", tb.name, name)
		}
		idx[i] = ci
	}
	return idx, nil
}

// Insert adds a record; row must provide a value for the key column, and
// omitted columns are null.
func (tb *Table) Insert(t *Txn, row Row) error {
	vals := make([]Value, tb.schema.NumCols())
	for i := range vals {
		vals[i] = Null()
	}
	for name, v := range row {
		ci := tb.schema.ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("lstore: table %q has no column %q", tb.name, name)
		}
		vals[ci] = v
	}
	if err := tb.store.Insert(t.inner, vals); err != nil {
		return err
	}
	if tb.db.logger != nil {
		tvals := make([]wal.TypedVal, len(vals))
		for i, v := range vals {
			tvals[i] = toTyped(v)
		}
		if _, err := tb.db.logger.Append(wal.Record{
			Kind: wal.KindInsert, TxnID: t.inner.ID, Table: tb.id, TVals: tvals,
		}); err != nil {
			// The insert applied in memory but its log record did not:
			// poison the transaction so Commit aborts it atomically.
			return t.poisonWAL(err)
		}
	}
	return nil
}

// Update modifies the given columns of the record with key.
func (tb *Table) Update(t *Txn, key int64, set Row) error {
	cols := make([]int, 0, len(set))
	vals := make([]Value, 0, len(set))
	for name, v := range set {
		ci := tb.schema.ColIndex(name)
		if ci < 0 {
			return fmt.Errorf("lstore: table %q has no column %q", tb.name, name)
		}
		cols = append(cols, ci)
		vals = append(vals, v)
	}
	if err := tb.store.Update(t.inner, key, cols, vals); err != nil {
		return err
	}
	if tb.db.logger != nil {
		rec := wal.Record{Kind: wal.KindUpdate, TxnID: t.inner.ID, Table: tb.id, Key: zig(key)}
		for i := range cols {
			rec.Cols = append(rec.Cols, uint32(cols[i]))
			rec.TVals = append(rec.TVals, toTyped(vals[i]))
		}
		if _, err := tb.db.logger.Append(rec); err != nil {
			return t.poisonWAL(err)
		}
	}
	return nil
}

// Delete removes the record with key.
func (tb *Table) Delete(t *Txn, key int64) error {
	if err := tb.store.Delete(t.inner, key); err != nil {
		return err
	}
	if tb.db.logger != nil {
		if _, err := tb.db.logger.Append(wal.Record{
			Kind: wal.KindDelete, TxnID: t.inner.ID, Table: tb.id, Key: zig(key),
		}); err != nil {
			return t.poisonWAL(err)
		}
	}
	return nil
}

// Get returns the requested columns (all columns when none named) of the
// record with key, under the transaction's isolation level.
func (tb *Table) Get(t *Txn, key int64, cols ...string) (Row, bool, error) {
	idx, err := tb.colIndexes(cols)
	if err != nil {
		return nil, false, err
	}
	vals, ok, err := tb.store.Get(t.inner, key, idx)
	if err != nil || !ok {
		return nil, ok, err
	}
	return tb.makeRow(idx, vals), true, nil
}

// GetSpeculative is Get under speculative-read semantics: it may observe
// pre-committed versions of competing transactions and registers commit
// validation (§5.1.1).
func (tb *Table) GetSpeculative(t *Txn, key int64, cols ...string) (Row, bool, error) {
	idx, err := tb.colIndexes(cols)
	if err != nil {
		return nil, false, err
	}
	vals, ok, err := tb.store.GetSpeculative(t.inner, key, idx)
	if err != nil || !ok {
		return nil, ok, err
	}
	return tb.makeRow(idx, vals), true, nil
}

// GetAt is a time-travel read: the record as of ts.
func (tb *Table) GetAt(ts Timestamp, key int64, cols ...string) (Row, bool, error) {
	idx, err := tb.colIndexes(cols)
	if err != nil {
		return nil, false, err
	}
	vals, ok, err := tb.store.GetAt(ts, key, idx)
	if err != nil || !ok {
		return nil, ok, err
	}
	return tb.makeRow(idx, vals), true, nil
}

func (tb *Table) makeRow(idx []int, vals []Value) Row {
	row := make(Row, len(idx))
	for i, ci := range idx {
		row[tb.schema.Cols[ci].Name] = vals[i]
	}
	return row
}

// Sum computes SUM(col) over live records as of ts (snapshot semantics);
// rows is the number of contributing records. A thin wrapper over the
// Query aggregate plan: the fold runs inside the shared columnar scan
// engine, fanned across the table's scan worker pool
// (TableOptions.ScanWorkers).
func (tb *Table) Sum(ts Timestamp, col string) (sum int64, rows int64, err error) {
	res, err := tb.Query().At(ts).Aggregate(Sum(col))
	if err != nil {
		return 0, 0, err
	}
	return res.Int(0), res.Rows(0), nil
}

// Merge synchronously consolidates every range's committed tail backlog
// (the background merge does this automatically unless disabled). Returns
// the number of tail records consolidated.
func (tb *Table) Merge() int { return tb.store.ForceMerge() }

// CompressHistory moves fully merged historic tail records into the
// delta-compressed history store (§4.3). Returns records moved.
func (tb *Table) CompressHistory() int { return tb.store.CompressHistory() }

// Stats returns engine counters and merge-lag gauges.
func (tb *Table) Stats() core.StatsSnapshot { return tb.store.Stats() }

// CompressionStats summarizes the encoded footprint of the table's sealed
// base pages (page counts per encoding, logical vs physical words).
func (tb *Table) CompressionStats() core.CompressionStats { return tb.store.CompressionStats() }

// Lineage reports every update range's per-column merge lineage
// ({cursor, TPS} records; see §4.2) for introspection tools.
func (tb *Table) Lineage() []core.RangeLineage { return tb.store.LineageSnapshot() }

func toTyped(v Value) wal.TypedVal {
	switch {
	case v.IsNull():
		return wal.TypedVal{Kind: wal.TVNull}
	case v.Kind() == types.String:
		return wal.TypedVal{Kind: wal.TVString, S: v.Str()}
	default:
		return wal.TypedVal{Kind: wal.TVInt, I: v.Int()}
	}
}
