package main

import (
	"fmt"
	"strconv"

	"lstore"
	"lstore/internal/workload"
)

// The 10-column table of §6.1: the key "id" plus data columns c1..c9.
const wideCols = 10

var dataCols = func() []string {
	cs := make([]string, wideCols-1)
	for i := range cs {
		cs[i] = "c" + strconv.Itoa(i+1)
	}
	return cs
}()

func wideSchema() lstore.Schema {
	cols := []lstore.Column{{Name: "id", Type: lstore.Int64}}
	for _, c := range dataCols {
		cols = append(cols, lstore.Column{Name: c, Type: lstore.Int64})
	}
	return lstore.NewSchema("id", cols...)
}

// mix is splitmix64's finalizer: every generated value is a pure function of
// the seed and its position.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// model is the benchmark's own copy of every committed value of a wide
// table: rows × the 9 data columns. Writers that own disjoint keys may
// update it concurrently.
type model struct {
	rows int
	v    []int64
}

func newModel(seed int64, rows int) *model {
	m := &model{rows: rows, v: make([]int64, rows*(wideCols-1))}
	for i := range m.v {
		m.v[i] = int64(mix(uint64(seed)<<32^uint64(i)) % (1 << 20))
	}
	return m
}

// at returns data column c (1..9) of key.
func (m *model) at(key int64, c int) int64 { return m.v[int(key)*(wideCols-1)+c-1] }

func (m *model) set(key int64, c int, v int64) { m.v[int(key)*(wideCols-1)+c-1] = v }

func (m *model) row(key int64) lstore.Row {
	r := lstore.Row{"id": lstore.Int(key)}
	for c := 1; c < wideCols; c++ {
		r[dataCols[c-1]] = lstore.Int(m.at(key, c))
	}
	return r
}

// apply records a committed transaction's writes.
func (m *model) apply(ops []workload.Op) {
	for _, op := range ops {
		if op.Write {
			for i, c := range op.Cols {
				m.set(op.Key, c, op.Vals[i])
			}
		}
	}
}

// load inserts every model row in transactions of loadBatch rows.
const loadBatch = 4096

func (m *model) load(db *lstore.DB, tbl *lstore.Table) error {
	for lo := 0; lo < m.rows; lo += loadBatch {
		tx := db.Begin(lstore.ReadCommitted)
		for k := lo; k < min(lo+loadBatch, m.rows); k++ {
			if err := tbl.Insert(tx, m.row(int64(k))); err != nil {
				tx.Abort()
				return fmt.Errorf("load key %d: %w", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	return nil
}

// verify reads every row back through Query().Rows and compares it with the
// model.
func (m *model) verify(tbl *lstore.Table) error {
	seen := make([]bool, m.rows)
	n := 0
	var bad error
	err := tbl.Query().Select(dataCols...).Rows(func(r *lstore.RowView) bool {
		k := r.Key()
		if k < 0 || int(k) >= m.rows || seen[k] {
			bad = incorrect("final pass: unexpected or repeated key %d", k)
			return false
		}
		seen[k] = true
		n++
		for c := 1; c < wideCols; c++ {
			if got, want := r.IntAt(c-1), m.at(k, c); got != want {
				bad = incorrect("final pass: key %d %s = %d, model says %d", k, dataCols[c-1], got, want)
				return false
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("final pass: %w", err)
	}
	if bad != nil {
		return bad
	}
	if n != m.rows {
		return incorrect("final pass: %d rows, model has %d", n, m.rows)
	}
	return nil
}

// checkRow compares a Get result with the model.
func (m *model) checkRow(key int64, cols []int, row lstore.Row, found bool) error {
	if !found {
		return incorrect("get %d: not found", key)
	}
	for _, c := range cols {
		if got, want := row[dataCols[c-1]].Int(), m.at(key, c); got != want {
			return incorrect("get %d: %s = %d, model says %d", key, dataCols[c-1], got, want)
		}
	}
	return nil
}

// colNames maps workload column indexes to names.
func colNames(cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = dataCols[c-1]
	}
	return out
}

// updateRow is one write statement's SET clause.
func updateRow(op workload.Op) lstore.Row {
	r := make(lstore.Row, len(op.Cols))
	for i, c := range op.Cols {
		r[dataCols[c-1]] = lstore.Int(op.Vals[i])
	}
	return r
}
