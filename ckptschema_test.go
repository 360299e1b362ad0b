package lstore

import (
	"bytes"
	"testing"
)

// TestCheckpointSchema: the schema-only walk over a checkpoint image must
// return every table's declaration — name, key, columns with types,
// secondary indexes — in creation (id) order, and the declarations must
// rebuild schemas equal to the originals.
func TestCheckpointSchema(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.CreateTable("accounts", NewSchema("id",
		Column{Name: "id", Type: Int64},
		Column{Name: "owner", Type: String},
		Column{Name: "balance", Type: Int64},
	), TableOptions{SecondaryIndexes: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("events", NewSchema("seq",
		Column{Name: "seq", Type: Int64},
		Column{Name: "kind", Type: String},
	)); err != nil {
		t.Fatal(err)
	}
	// Some data, so the walk has row frames to skip over.
	tbl, _ := db.Table("accounts")
	tx := db.Begin(ReadCommitted)
	for i := int64(1); i <= 10; i++ {
		if err := tbl.Insert(tx, Row{"id": Int(i), "owner": Str("o"), "balance": Int(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var sink CheckpointBuffer
	if _, err := db.CheckpointTo(&sink); err != nil {
		t.Fatal(err)
	}
	r, _, ok := sink.Latest()
	if !ok {
		t.Fatal("no checkpoint taken")
	}
	decls, err := CheckpointSchema(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 2 {
		t.Fatalf("got %d table declarations, want 2", len(decls))
	}
	a := decls[0]
	if a.Name != "accounts" || a.Key != "id" {
		t.Fatalf("decl 0: %q key %q", a.Name, a.Key)
	}
	if len(a.Columns) != 3 || a.Columns[1].Name != "owner" || a.Columns[1].Type != String {
		t.Fatalf("accounts columns: %+v", a.Columns)
	}
	if len(a.SecondaryIndexes) != 1 || a.SecondaryIndexes[0] != "owner" {
		t.Fatalf("accounts indexes: %v", a.SecondaryIndexes)
	}
	e := decls[1]
	if e.Name != "events" || e.Key != "seq" || len(e.SecondaryIndexes) != 0 {
		t.Fatalf("decl 1: %+v", e)
	}

	// The declarations must be good enough to rebuild a DB that Recover
	// accepts — the contract OpenStore relies on.
	db2 := Open()
	defer db2.Close()
	for _, d := range decls {
		if _, err := db2.CreateTable(d.Name, d.Schema(), TableOptions{SecondaryIndexes: d.SecondaryIndexes}); err != nil {
			t.Fatalf("recreate %q from declaration: %v", d.Name, err)
		}
	}
	r2, _, _ := sink.Latest()
	stats, err := Recover(db2, r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointRows != 10 {
		t.Fatalf("recovered %d rows through declared schema, want 10", stats.CheckpointRows)
	}
	// And the secondary index really exists on the rebuilt table.
	tbl2, _ := db2.Table("accounts")
	if !tbl2.store.HasSecondary(tbl2.schema.ColIndex("owner")) {
		t.Fatal("secondary index on owner not recreated")
	}
	keys, err := tbl2.Query().At(db2.Now()).Where(Eq("owner", Str("o"))).Keys()
	if err != nil || len(keys) != 10 {
		t.Fatalf("probe on recreated index: %d keys, err %v", len(keys), err)
	}
}

// TestCheckpointSchemaTornImage: a truncated image must yield an error, not
// a silently partial schema.
func TestCheckpointSchemaTornImage(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.CreateTable("t", NewSchema("id", Column{Name: "id", Type: Int64})); err != nil {
		t.Fatal(err)
	}
	var sink CheckpointBuffer
	if _, err := db.CheckpointTo(&sink); err != nil {
		t.Fatal(err)
	}
	r, _, _ := sink.Latest()
	var full bytes.Buffer
	if _, err := full.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	img := full.Bytes()
	if _, err := CheckpointSchema(bytes.NewReader(img[:len(img)-3])); err == nil {
		t.Fatal("torn checkpoint image parsed without error")
	}
}
