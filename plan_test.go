package lstore

import (
	"errors"
	"math"
	"testing"
)

// planFixture builds a table with a secondary index on "region" only.
func planFixture(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := Open()
	t.Cleanup(db.Close)
	tbl, err := db.CreateTable("accounts", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "owner", Type: String},
		Column{Name: "balance", Type: Int64},
		Column{Name: "region", Type: Int64},
	), TableOptions{RangeSize: 64, DisableAutoMerge: true, SecondaryIndexes: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(1), "owner": Str("ada"), "balance": Int(10), "region": Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestPlannerIndexVsScanSelection pins the planner's plan choice: equality
// on an indexed column probes, everything else scans, provably-unmatchable
// predicates short-circuit.
func TestPlannerIndexVsScanSelection(t *testing.T) {
	_, tbl := planFixture(t)

	cases := []struct {
		name  string
		preds []Predicate
		want  planKind
	}{
		{"eq on indexed column", []Predicate{Eq("region", Int(3))}, planProbe},
		{"eq on unindexed column", []Predicate{Eq("balance", Int(10))}, planScan},
		{"eq on key column (no secondary index)", []Predicate{Eq("id", Int(1))}, planScan},
		{"window on indexed column", []Predicate{Between("region", Int(1), Int(4))}, planScan},
		{"degenerate between on indexed column", []Predicate{Between("region", Int(3), Int(3))}, planProbe},
		{"ne on indexed column", []Predicate{Ne("region", Int(3))}, planScan},
		{"is-null on indexed column (indexes hold no nulls)", []Predicate{IsNull("region")}, planScan},
		{"window first, eq on indexed second", []Predicate{Gt("balance", Int(5)), Eq("region", Int(3))}, planProbe},
		{"no predicates", nil, planScan},
		{"inverted between", []Predicate{Between("balance", Int(9), Int(3))}, planEmpty},
		{"eq on string absent from dictionary", []Predicate{Eq("owner", Str("nobody"))}, planEmpty},
	}
	for _, tc := range cases {
		p, err := tbl.planQuery(nil, tc.preds, nil, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.kind != tc.want {
			t.Errorf("%s: plan kind %d, want %d", tc.name, p.kind, tc.want)
		}
		if p.kind == planProbe && p.probeCol != tbl.schema.ColIndex("region") {
			t.Errorf("%s: probe column %d, want region", tc.name, p.probeCol)
		}
	}
}

// TestPlannerReadColsAndPositions pins the compiled column layout:
// projection first, predicate columns appended without duplication, key
// last when requested.
func TestPlannerReadColsAndPositions(t *testing.T) {
	_, tbl := planFixture(t)

	p, err := tbl.planQuery([]string{"balance", "owner"},
		[]Predicate{Gt("balance", Int(0)), Eq("region", Int(1))}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// readCols: balance, owner (projection), region (predicate), id (key).
	want := []int{2, 1, 3, 0}
	if len(p.readCols) != len(want) {
		t.Fatalf("readCols = %v, want %v", p.readCols, want)
	}
	for i := range want {
		if p.readCols[i] != want[i] {
			t.Fatalf("readCols = %v, want %v", p.readCols, want)
		}
	}
	if p.nProj != 2 || p.keyPos != 3 {
		t.Fatalf("nProj=%d keyPos=%d", p.nProj, p.keyPos)
	}
	// The balance predicate must alias the projection position.
	if p.preds[0].Idx != 0 || p.preds[1].Idx != 2 {
		t.Fatalf("pred positions %d,%d, want 0,2", p.preds[0].Idx, p.preds[1].Idx)
	}
}

// TestPlannerTypeChecking pins the API-boundary type checks: mistyped
// operands, ordered comparisons on strings, and aggregates over strings all
// fail with ErrTypeMismatch; Insert and Update reject mistyped values with
// the same sentinel.
func TestPlannerTypeChecking(t *testing.T) {
	db, tbl := planFixture(t)

	bad := [][]Predicate{
		{Eq("balance", Str("x"))},
		{Ne("owner", Int(1))},
		{Lt("owner", Str("x"))}, // ordered on string column
		{Between("owner", Str("a"), Str("b"))},
		{Gt("balance", Null())}, // null operand in ordered comparison
	}
	for i, preds := range bad {
		if _, err := tbl.planQuery(nil, preds, nil, false); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("case %d: err = %v, want ErrTypeMismatch", i, err)
		}
	}
	if _, err := tbl.planQuery(nil, nil, []Agg{Min("owner")}, false); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Min over string column: want ErrTypeMismatch")
	}
	if _, err := tbl.planQuery(nil, []Predicate{Eq("ghost", Int(1))}, nil, false); err == nil {
		t.Error("unknown predicate column accepted")
	}

	tx := db.Begin(ReadCommitted)
	defer tx.Abort()
	if err := tbl.Insert(tx, Row{"id": Int(9), "owner": Int(1)}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Insert mistyped value: err = %v, want ErrTypeMismatch", err)
	}
	if err := tbl.Update(tx, 1, Row{"balance": Str("x")}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Update mistyped value: err = %v, want ErrTypeMismatch", err)
	}
}

// TestMaxInt64Boundary pins the reserved-value contract: math.MaxInt64 is
// unstorable (its encoding would collide with the implicit null), the write
// path rejects it with ErrTypeMismatch, and predicates mentioning it lower
// to what the collision-free universe implies instead of comparing a
// saturated encoding that aliases MaxInt64-1.
func TestMaxInt64Boundary(t *testing.T) {
	db, tbl := planFixture(t)
	const nearMax = math.MaxInt64 - 1

	tx := db.Begin(ReadCommitted)
	if err := tbl.Insert(tx, Row{"id": Int(2), "owner": Str("bea"), "balance": Int(nearMax), "region": Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(tx, Row{"id": Int(3), "balance": Int(math.MaxInt64)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Insert MaxInt64: err = %v, want ErrTypeMismatch", err)
	}
	if err := tbl.Update(tx, 1, Row{"balance": Int(math.MaxInt64)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Update MaxInt64: err = %v, want ErrTypeMismatch", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The row holding MaxInt64-1 must NOT alias a MaxInt64 operand.
	if ks, err := tbl.Query().Where(Eq("balance", Int(math.MaxInt64))).Keys(); err != nil || len(ks) != 0 {
		t.Fatalf("Eq(MaxInt64): %v %v", ks, err)
	}
	if c, err := tbl.Query().Where(Lt("balance", Int(math.MaxInt64))).Count(); err != nil || c != 2 {
		t.Fatalf("Lt(MaxInt64) count = %d (%v), want 2", c, err)
	}
	if c, err := tbl.Query().Where(Ne("balance", Int(math.MaxInt64))).Count(); err != nil || c != 2 {
		t.Fatalf("Ne(MaxInt64) count = %d (%v), want 2", c, err)
	}
	if ks, err := tbl.Query().Where(Ge("balance", Int(math.MaxInt64))).Keys(); err != nil || len(ks) != 0 {
		t.Fatalf("Ge(MaxInt64): %v %v", ks, err)
	}
	if ks, err := tbl.Query().Where(Between("balance", Int(nearMax), Int(math.MaxInt64))).Keys(); err != nil || len(ks) != 1 || ks[0] != 2 {
		t.Fatalf("Between(..., MaxInt64): %v %v", ks, err)
	}
}
