package lstore_test

import (
	"lstore"
	"lstore/internal/server"
)

// Wires the production open path into the crash-torture suite (see
// lstore.OpenStoreForTorture). Each open also bootstraps a spec table the
// image does not hold, so it runs the checkpoint that makes new tables
// durable — and that checkpoint's crash point sits inside the sweep.
func init() {
	lstore.OpenStoreForTorture = func(walPath, ckptPath string) (map[int64]lstore.Row, error) {
		st, err := server.OpenStore(server.StoreConfig{
			WALPath:        walPath,
			CheckpointPath: ckptPath,
			Tables: []server.TableSpec{{Name: "restarts", Key: "id",
				Columns: []lstore.Column{{Name: "id", Type: lstore.Int64}}}},
		})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		tbl, _ := st.DB.Table("t")
		rows := map[int64]lstore.Row{}
		err = tbl.Query().At(st.DB.Now()).Rows(func(rv *lstore.RowView) bool {
			rows[rv.Key()] = rv.Row()
			return true
		})
		return rows, err
	}
}
