package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"lstore"
)

// imageRestart describes how a workload without a log restarts from a
// checkpoint image of its end state.
type imageRestart struct {
	rows      int
	userBytes float64
	// poolBytes > 0 re-creates the table over a fresh spill file with this
	// buffer-pool cap; 0 keeps it resident.
	poolBytes int64
	// otherBytes counts durable bytes beside the image at the crash point.
	otherBytes int64
	firstQuery func(*lstore.Table) error
	check      func(*lstore.Table) error
}

// restartFromImage checkpoints db into a file and times what a crash would
// then cost: a fresh DB, the tables re-created from the image's schema, and
// Recover from the image. The first query after the open is timed apart,
// and the recovered table must match the workload's model.
func (p *pass) restartFromImage(db *lstore.DB, ir imageRestart) error {
	dir, err := p.roundDir("ckpt")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "image")
	sink, err := lstore.NewFileCheckpointSink(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := db.CheckpointTo(sink); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ckptMs := float64(time.Since(t0)) / 1e6
	image, err := fileSize(path)
	if err != nil {
		return err
	}
	p.e.stored = append(p.e.stored, float64(image+ir.otherBytes)/ir.userBytes)
	for i := 0; i < restartsPerRound; i++ {
		if err := p.openImage(path, ir, i == 0, ckptMs, image); err != nil {
			return err
		}
	}
	return nil
}

// restartsPerRound is how many timed restarts a round makes from its one
// crash image.
const restartsPerRound = 2

// openImage is one timed restart from the image at path; check also
// compares every recovered row with the model.
func (p *pass) openImage(path string, ir imageRestart, check bool, ckptMs float64, image int64) error {
	rdir, err := p.roundDir("restart")
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := p.tr.begin("recovery.open", 0, 0)
	var opts lstore.TableOptions
	if ir.poolBytes > 0 {
		spill, err := lstore.OpenFileSpill(filepath.Join(rdir, "spill"))
		if err != nil {
			return err
		}
		defer spill.Close()
		opts.Spill, opts.PoolBytes = spill, ir.poolBytes
	}
	db2, stats, err := openFromImage(path, opts)
	sp.end()
	restart := time.Since(t0)
	if err != nil {
		return fmt.Errorf("restart from image: %w", err)
	}
	defer db2.Close()
	p.e.restart = append(p.e.restart, restart.Seconds())
	tbl, _ := db2.Table("t")
	fq := p.tr.begin("first_query", 0, 0)
	t0 = time.Now()
	if err := ir.firstQuery(tbl); err != nil {
		return err
	}
	firstMs := float64(time.Since(t0)) / 1e6
	fq.end()
	if stats.CheckpointRows != int64(ir.rows) || stats.RedoneTxns != 0 {
		return incorrect("restart restored %d rows and redid %d txns, want %d and 0", stats.CheckpointRows, stats.RedoneTxns, ir.rows)
	}
	if check {
		if err := ir.check(tbl); err != nil {
			return fmt.Errorf("after restart: %w", err)
		}
	}
	if p.tr != nil {
		written, err := dirSize(rdir)
		if err != nil {
			return err
		}
		p.recoveryLayers(ckptMs, image, stats, image, written, firstMs)
	}
	return nil
}

// openFromImage is a restart without a log: new DB, schema from the image,
// then Recover.
func openFromImage(path string, opts lstore.TableOptions) (*lstore.DB, lstore.RecoverStats, error) {
	sink, err := lstore.NewFileCheckpointSink(path)
	if err != nil {
		return nil, lstore.RecoverStats{}, err
	}
	r, _, ok := sink.Latest()
	if !ok {
		return nil, lstore.RecoverStats{}, fmt.Errorf("no image at %s", path)
	}
	decls, err := lstore.CheckpointSchema(r)
	if err != nil {
		return nil, lstore.RecoverStats{}, err
	}
	db := lstore.Open()
	for _, d := range decls {
		o := opts
		o.SecondaryIndexes = d.SecondaryIndexes
		if _, err := db.CreateTable(d.Name, d.Schema(), o); err != nil {
			db.Close()
			return nil, lstore.RecoverStats{}, err
		}
	}
	r, _, _ = sink.Latest()
	stats, err := lstore.Recover(db, r, nil)
	if err != nil {
		db.Close()
		return nil, stats, err
	}
	return db, stats, nil
}

func (p *pass) recoveryLayers(ckptMs float64, image int64, stats lstore.RecoverStats, read, written int64, firstMs float64) {
	l := p.layer
	l["checkpoint.ms"] = ckptMs
	l["checkpoint.image_bytes"] = float64(image)
	l["recovery.redone_txns"] = float64(stats.RedoneTxns)
	l["recovery.checkpoint_rows"] = float64(stats.CheckpointRows)
	l["recovery.bytes_read"] = float64(read)
	l["recovery.bytes_written"] = float64(written)
	l["recovery.first_query_ms"] = firstMs
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src into a fresh dst: the bytes a
// process kill leaves behind, when every acknowledged commit was fsynced.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
