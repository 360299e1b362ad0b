// Durable store open/recover for the serving layer: one log at
// StoreConfig.WALPath and one checkpoint image at StoreConfig.CheckpointPath.
//
// Recovery logs nothing, so the image and the log always share one LSN
// sequence: the image's watermark says which logged transactions it already
// holds, and the log continues across restarts. Opening is therefore open →
// recover → continue:
//
//   - read the image's schema and re-create its tables;
//   - open the log (the logger cuts a torn tail before the first append);
//   - Recover(image, log): restore the image, redo the commits above its
//     watermark;
//   - create spec tables the image does not know, and only then checkpoint,
//     because table creation is durable only through the image;
//   - start the background checkpointer, which keeps replacing the image
//     and truncating the log beneath its watermark.
//
// A crash anywhere in this sequence leaves the log and the image as a valid
// pair: recovery writes neither, the tail cut drops only bytes no reader
// replays, and the checkpoint replaces the image atomically.
package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lstore"
	"lstore/internal/fault"
)

// cpOpenPreDDLCheckpoint sits between bootstrapping new tables and the
// checkpoint that makes them durable (a no-op in production).
var cpOpenPreDDLCheckpoint = fault.Register("server.open.pre-ddl-checkpoint")

// TableSpec declares one table for bootstrap of a fresh store. On restart
// the checkpoint image's recorded schema is authoritative; specs only add
// tables that do not exist yet.
type TableSpec struct {
	Name    string
	Key     string
	Columns []lstore.Column
	Indexes []string
}

// StoreConfig configures OpenStore.
type StoreConfig struct {
	// WALPath is the log file, continued across restarts.
	WALPath string
	// CheckpointPath is the image file, atomically replaced by each
	// checkpoint.
	CheckpointPath string
	// CheckpointEvery runs the background checkpointer (0 = only explicit
	// checkpoints: after DDL and at drain).
	CheckpointEvery time.Duration
	// Tables bootstraps a fresh store (and adds missing tables on restart).
	Tables []TableSpec
}

// Store is an opened durable store: the DB plus the image sink the serving
// layer needs for DDL/drain checkpoints.
type Store struct {
	DB         *lstore.DB
	Checkpoint *lstore.FileCheckpointSink // the image sink
	CkptFile   string                     // the image path
	Recovered  lstore.RecoverStats        // what startup recovery replayed
	wal        *lstore.WALFile
}

// OpenStore opens (creating if absent) the store at cfg.WALPath and
// cfg.CheckpointPath, recovering any previous state. It refuses a log
// without a complete image to pair it with, and the generation-tagged
// layout of earlier versions.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.WALPath == "" || cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("server: OpenStore needs both a WAL path and a checkpoint path")
	}
	if err := refuseOldLayout(cfg.WALPath); err != nil {
		return nil, err
	}
	ckptSink, err := lstore.NewFileCheckpointSink(cfg.CheckpointPath)
	if err != nil {
		return nil, err
	}
	image, err := os.ReadFile(cfg.CheckpointPath)
	haveImage := err == nil
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("server: read checkpoint image: %w", err)
	}
	walSink, err := lstore.OpenWALFile(cfg.WALPath)
	if err != nil {
		return nil, err
	}
	db := lstore.Open(lstore.WithWAL(walSink, nil))
	fail := func(err error) (*Store, error) {
		db.Close()
		walSink.Close() //nolint:errcheck // the open already failed
		return nil, err
	}
	if err := db.WALInfo().Err; err != nil {
		return fail(fmt.Errorf("server: reopen WAL %s: %w", cfg.WALPath, err))
	}
	log, err := walSink.Retained()
	if err != nil {
		return fail(err)
	}
	if len(log) > 0 && !haveImage {
		// The log holds only the tail above the image's watermark: without
		// the image it cannot rebuild the store.
		return fail(fmt.Errorf("server: WAL %s is not empty but there is no complete image at %s — refusing a partial recovery",
			cfg.WALPath, cfg.CheckpointPath))
	}

	// Schema first: Recover replays into tables that must already exist,
	// with the same ids (creation order). A torn or corrupt image fails
	// here or in Recover — it is never treated as absent, which would let
	// the next checkpoint overwrite the only copy of the data.
	st := &Store{DB: db, Checkpoint: ckptSink, CkptFile: cfg.CheckpointPath, wal: walSink}
	if haveImage {
		decls, err := lstore.CheckpointSchema(bytes.NewReader(image))
		if err != nil {
			return fail(fmt.Errorf("server: checkpoint schema: %w", err))
		}
		for _, d := range decls {
			if _, err := db.CreateTable(d.Name, d.Schema(), lstore.TableOptions{SecondaryIndexes: d.SecondaryIndexes}); err != nil {
				return fail(fmt.Errorf("server: recreate table %q: %w", d.Name, err))
			}
		}
		if st.Recovered, err = lstore.Recover(db, bytes.NewReader(image), bytes.NewReader(log)); err != nil {
			return fail(fmt.Errorf("server: recover: %w", err))
		}
	}

	// Bootstrap tables the image does not know about (fresh store, or new
	// specs added across a restart), after Recover: their ids must come
	// after every replayed table's. New tables — and a brand-new store —
	// become durable only through a checkpoint.
	created := !haveImage
	for _, spec := range cfg.Tables {
		if _, ok := db.Table(spec.Name); ok {
			continue
		}
		if _, err := db.CreateTable(spec.Name, lstore.NewSchema(spec.Key, spec.Columns...),
			lstore.TableOptions{SecondaryIndexes: spec.Indexes}); err != nil {
			return fail(fmt.Errorf("server: create table %q: %w", spec.Name, err))
		}
		created = true
	}
	if created {
		cpOpenPreDDLCheckpoint.Hit() // crash here: new tables exist only in memory
		if _, err := db.CheckpointTo(ckptSink); err != nil {
			return fail(fmt.Errorf("server: checkpoint new tables: %w", err))
		}
	}
	if cfg.CheckpointEvery > 0 {
		if err := db.StartCheckpointer(cfg.CheckpointEvery, ckptSink); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// Close stops background work, closes the DB and then the log file
// (without a final checkpoint — Server.Shutdown does the drain sequence).
func (st *Store) Close() {
	st.DB.Close()
	st.wal.Close() //nolint:errcheck // every commit already flushed and synced
}

// refuseOldLayout rejects a directory written by the generation protocol of
// earlier versions (a <wal>.gen marker, <wal>.NNNNNN logs): opening next to
// it would bootstrap an empty store beside the real data.
func refuseOldLayout(walPath string) error {
	matches, err := filepath.Glob(walPath + ".*")
	if err != nil {
		return err
	}
	for _, m := range matches {
		suffix := strings.TrimPrefix(m, walPath+".")
		if suffix == "gen" || (suffix != "" && strings.Trim(suffix, "0123456789") == "") {
			return fmt.Errorf("server: %s belongs to the old generation-tagged layout (<wal>.gen, <wal>.NNNNNN, <checkpoint>.NNNNNN); "+
				"this version keeps one log at %s — refusing to open beside it", m, walPath)
		}
	}
	return nil
}
