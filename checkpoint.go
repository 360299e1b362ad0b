package lstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"lstore/internal/core"
	"lstore/internal/fault"
	"lstore/internal/types"
	"lstore/internal/wal"
)

// Crash points on the checkpoint path (no-ops in production).
var (
	cpCkptPostCut     = fault.Register("ckpt.post-cut")
	cpCkptPreEnd      = fault.Register("ckpt.pre-end")
	cpCkptPreTruncate = fault.Register("ckpt.round.pre-truncate")
)

// This file is the checkpoint/restore half of the durability subsystem: a
// checkpoint serializes a transactionally consistent snapshot of every
// table (schema, committed rows as of one captured read timestamp,
// secondary-index column list, per-range merge-lineage counters) together
// with the WAL LSN watermark it covers. Recover restores the image through
// the bulk-load fast path and then redoes only the log tail above the
// watermark — restart cost is bounded by checkpoint size + log tail, not
// total history (the restart story of HTAP engines; see ROADMAP/PAPERS).
//
// Image layout: a strict sequence of CRC frames (wal.WriteFrame), each
// tagged by its first byte. A torn or corrupt image fails restore loudly
// (wal.ErrTornFrame) — unlike the log, whose torn tail is meaningful.

const (
	ckptMagic = "LSTORECKPT"
	// ckptVersion 2 added framePageRange: cold sealed ranges ship their
	// ENCODED base pages verbatim instead of expanded row tuples — images
	// shrink by the pages' compression ratio and restore installs them
	// without a decode/re-encode round-trip. Version 3 added framePageRef:
	// when base pages already live on a spill file (TableOptions.Spill) and
	// the table opts in (CheckpointSpillRefs), cold ranges ship as spill
	// DESCRIPTORS — (offset, length, CRC) triples a few bytes each — instead
	// of page payloads; the image is valid only alongside the spill file that
	// produced it, which restore re-attaches and CRC-verifies per frame.
	// Readers accept 1..3 (a v1 image is a v3 image with no page frames).
	ckptVersion    = 3
	ckptVersionMin = 1

	frameHeader    = 1 // magic, version, timestamp, LSN watermark, #tables
	frameTable     = 2 // table id, name, schema, secondary cols, lineage
	frameRowBatch  = 3 // table id, row count, rows as TypedVal tuples
	frameTableEnd  = 4 // table id, total row count (sanity)
	frameEnd       = 5 // total rows across tables (sanity)
	framePageRange = 6 // table id, cold range's encoded pages, verbatim
	framePageRef   = 7 // table id, cold range's pages as spill descriptors

	ckptRowsPerBatch = 512
)

// ckptVersionOK reports whether a reader of this binary understands v.
func ckptVersionOK(v uint64) bool { return v >= ckptVersionMin && v <= ckptVersion }

// ErrTornCheckpoint reports a truncated or corrupt checkpoint image:
// restore fails loudly (fall back to full-log replay) rather than loading a
// partial snapshot.
var ErrTornCheckpoint = wal.ErrTornFrame

// CheckpointInfo describes one checkpoint image.
type CheckpointInfo struct {
	// LSN is the WAL watermark the snapshot covers: every transaction whose
	// commit record has LSN <= LSN is inside the image, every one above it
	// is not. 0 when no WAL is attached.
	LSN uint64
	// Time is the logical read timestamp the snapshot was captured at.
	Time Timestamp
	// Tables and Rows count what was serialized.
	Tables int
	Rows   int64
}

// Checkpoint serializes a transactionally consistent snapshot of every
// table into w and returns the WAL watermark it covers. The (timestamp,
// LSN) cut is captured under the commit gate — no transaction can sit
// between its in-memory commit and its commit record while the cut is
// taken — so a transaction's effects are inside the image iff its commit
// record's LSN is at or below the watermark; Recover uses exactly that
// predicate to replay the tail exactly-once. The row scan itself runs
// outside the gate at the captured timestamp (MVCC time travel), so
// checkpointing never blocks writers beyond the cut instant.
func (db *DB) Checkpoint(w io.Writer) (CheckpointInfo, error) {
	db.commitMu.Lock()
	ts := db.tm.Now()
	var lsn uint64
	if db.logger != nil {
		if err := db.logger.Flush(); err != nil {
			db.commitMu.Unlock()
			return CheckpointInfo{}, fmt.Errorf("lstore: checkpoint: %w", err)
		}
		lsn = db.logger.FlushedLSN()
	}
	db.commitMu.Unlock()
	cpCkptPostCut.Hit() // crash here: cut taken, no image bytes written yet

	db.mu.RLock()
	tables := append([]*Table(nil), db.byID...)
	db.mu.RUnlock()

	info := CheckpointInfo{LSN: lsn, Time: ts, Tables: len(tables)}
	p := []byte{frameHeader}
	p = append(p, ckptMagic...)
	p = binary.AppendUvarint(p, ckptVersion)
	p = binary.AppendUvarint(p, ts)
	p = binary.AppendUvarint(p, lsn)
	p = binary.AppendUvarint(p, uint64(len(tables)))
	if err := wal.WriteFrame(w, p); err != nil {
		return info, err
	}
	for _, tbl := range tables {
		if err := tbl.writeCheckpoint(w, ts, &info.Rows); err != nil {
			return info, err
		}
	}
	cpCkptPreEnd.Hit() // crash here: image body written but no end frame — torn image
	end := []byte{frameEnd}
	end = binary.AppendUvarint(end, uint64(info.Rows))
	if err := wal.WriteFrame(w, end); err != nil {
		return info, err
	}
	return info, nil
}

// writeCheckpoint serializes one table: header frame (schema, secondary
// index columns, per-range merge lineage), row-batch frames with the
// committed rows as of ts, and a counted end frame.
func (tb *Table) writeCheckpoint(w io.Writer, ts Timestamp, totalRows *int64) error {
	p := []byte{frameTable}
	p = binary.AppendUvarint(p, tb.id)
	p = appendCkptString(p, tb.name)
	p = binary.AppendUvarint(p, uint64(tb.schema.Key))
	p = binary.AppendUvarint(p, uint64(tb.schema.NumCols()))
	for _, c := range tb.schema.Cols {
		p = appendCkptString(p, c.Name)
		p = append(p, byte(c.Type))
	}
	secs := append([]int(nil), tb.store.Config().SecondaryIndexColumns...)
	sort.Ints(secs)
	p = binary.AppendUvarint(p, uint64(len(secs)))
	for _, c := range secs {
		p = binary.AppendUvarint(p, uint64(c))
	}
	// Per-range merge lineage: carried for introspection (lstore-inspect,
	// post-mortems of what the merge had consolidated at checkpoint time).
	// Restore bulk-loads into fresh ranges and does not re-apply it.
	lin := tb.store.LineageSnapshot()
	p = binary.AppendUvarint(p, uint64(len(lin)))
	for _, rl := range lin {
		var sealed byte
		if rl.Sealed {
			sealed = 1
		}
		p = append(p, sealed)
		p = binary.AppendUvarint(p, uint64(rl.Tail))
		p = binary.AppendUvarint(p, uint64(len(rl.Cols)))
		for _, cl := range rl.Cols {
			p = binary.AppendUvarint(p, uint64(cl.Cursor))
			p = binary.AppendUvarint(p, uint64(cl.TPS))
		}
	}
	if err := wal.WriteFrame(w, p); err != nil {
		return err
	}

	// Cold sealed ranges (zero tail lineage) whose pages already sit on the
	// spill file ship as DESCRIPTOR frames when the table opts in
	// (CheckpointSpillRefs): SyncSpill first makes the referenced bytes
	// durable — its failure fails the round, since descriptors must never
	// point at bytes a crash could discard — then each qualifying range
	// costs a few uvarints instead of its page payloads.
	count := int64(0)
	var refs []core.RangeRef
	if tb.store.Spilled() && tb.store.Config().CheckpointSpillRefs {
		if err := tb.store.SyncSpill(); err != nil {
			return fmt.Errorf("lstore: checkpoint spill sync: %w", err)
		}
		refs = tb.store.ColdRangeRefs(ts)
	}
	refCovered := make(map[types.RID]bool, len(refs))
	for _, ref := range refs {
		refCovered[ref.FirstRID] = true
		f := []byte{framePageRef}
		f = binary.AppendUvarint(f, tb.id)
		f = binary.AppendUvarint(f, uint64(ref.FirstRID))
		f = binary.AppendUvarint(f, uint64(ref.N))
		f = binary.AppendUvarint(f, uint64(ref.Rows))
		f = binary.AppendUvarint(f, uint64(len(ref.Cols)))
		for _, d := range ref.Cols {
			f = appendSpillDesc(f, d)
		}
		f = appendSpillDesc(f, ref.Starts)
		if err := wal.WriteFrame(w, f); err != nil {
			return err
		}
		count += int64(ref.Rows)
	}

	// Remaining cold ranges (no spill attached, refs disabled, or a
	// spill-write failure left a page resident without a descriptor) ship as
	// page frames: their encoded base pages verbatim, at in-memory size. All
	// cold windows — refs and images — are then EXCLUDED from the row scan
	// below, which serializes only the hot remainder (insert ranges, updated
	// ranges, string-dictionary tables — ColdRangeImages returns nil for the
	// latter).
	imgs := tb.store.ColdRangeImages(ts)
	if len(refCovered) > 0 {
		kept := imgs[:0]
		for _, img := range imgs {
			if !refCovered[img.FirstRID] {
				kept = append(kept, img)
			}
		}
		imgs = kept
	}
	for _, img := range imgs {
		f := []byte{framePageRange}
		f = binary.AppendUvarint(f, tb.id)
		f = binary.AppendUvarint(f, uint64(img.FirstRID))
		f = binary.AppendUvarint(f, uint64(img.N))
		f = binary.AppendUvarint(f, uint64(img.Rows))
		f = binary.AppendUvarint(f, uint64(len(img.Cols)))
		for _, col := range img.Cols {
			f = binary.AppendUvarint(f, uint64(len(col)))
			f = append(f, col...)
		}
		f = binary.AppendUvarint(f, uint64(len(img.Starts)))
		f = append(f, img.Starts...)
		if err := wal.WriteFrame(w, f); err != nil {
			return err
		}
		count += int64(img.Rows)
	}

	var batch []byte
	n := 0
	var frameErr error
	flush := func() error {
		if n == 0 {
			return nil
		}
		f := []byte{frameRowBatch}
		f = binary.AppendUvarint(f, tb.id)
		f = binary.AppendUvarint(f, uint64(n))
		f = append(f, batch...)
		batch, n = batch[:0], 0
		return wal.WriteFrame(w, f)
	}
	allCols := make([]int, tb.schema.NumCols())
	for i := range allCols {
		allCols[i] = i
	}
	tvals := make([]wal.TypedVal, tb.schema.NumCols())
	scanWindow := func(loRID, hiRID types.RID) error {
		if loRID >= hiRID {
			return nil
		}
		tb.store.ScanRange(ts, allCols, loRID, hiRID, func(_ int64, vals []Value) bool {
			for i, v := range vals {
				tvals[i] = toTyped(v)
			}
			batch = wal.AppendTypedVals(batch, tvals)
			n++
			count++
			if n >= ckptRowsPerBatch {
				if frameErr = flush(); frameErr != nil {
					return false
				}
			}
			return true
		})
		return frameErr
	}
	type window struct {
		first types.RID
		n     int
	}
	wins := make([]window, 0, len(refs)+len(imgs))
	for _, ref := range refs {
		wins = append(wins, window{ref.FirstRID, ref.N})
	}
	for _, img := range imgs {
		wins = append(wins, window{img.FirstRID, img.N})
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].first < wins[j].first })
	var prev types.RID
	for _, win := range wins {
		if err := scanWindow(prev, win.first); err != nil {
			return err
		}
		prev = win.first + types.RID(win.n)
	}
	if err := scanWindow(prev, ^types.RID(0)); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	p = []byte{frameTableEnd}
	p = binary.AppendUvarint(p, tb.id)
	p = binary.AppendUvarint(p, uint64(count))
	*totalRows += count
	return wal.WriteFrame(w, p)
}

// restoreCheckpoint rebuilds table contents from a checkpoint image:
// verifies each table frame against the re-created tables, bulk-loads row
// batches and installs cold ranges. Nothing is logged: the image itself
// stays the durable copy of what it restores.
func (db *DB) restoreCheckpoint(r io.Reader, stats *RecoverStats) error {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := wal.ReadFrame(br)
	if err != nil {
		return fmt.Errorf("lstore: checkpoint header: %w", err)
	}
	hp := &ckptParser{p: hdr}
	if hp.byte() != frameHeader || string(hp.bytes(len(ckptMagic))) != ckptMagic {
		return fmt.Errorf("lstore: not a checkpoint image")
	}
	if v := hp.uvarint(); !ckptVersionOK(v) {
		return fmt.Errorf("lstore: checkpoint version %d unsupported", v)
	}
	hp.uvarint() // capture timestamp (informational; restore re-issues times)
	watermark := hp.uvarint()
	nTables := hp.uvarint()
	if hp.err != nil {
		return fmt.Errorf("lstore: checkpoint header: %w", hp.err)
	}
	stats.Watermark = watermark

	var curTbl *Table
	var curCount, tablesSeen int64
	for {
		p, err := wal.ReadFrame(br)
		if err == io.EOF {
			return fmt.Errorf("lstore: checkpoint truncated before end frame: %w", wal.ErrTornFrame)
		}
		if err != nil {
			return fmt.Errorf("lstore: checkpoint: %w", err)
		}
		fp := &ckptParser{p: p}
		switch fp.byte() {
		case frameTable:
			tbl, err := db.verifyCkptTable(fp)
			if err != nil {
				return err
			}
			curTbl, curCount = tbl, 0
			tablesSeen++
		case frameRowBatch:
			id := fp.uvarint()
			nRows := fp.uvarint()
			if fp.err != nil {
				return fmt.Errorf("lstore: checkpoint row batch: %w", fp.err)
			}
			if curTbl == nil || id != curTbl.id {
				return fmt.Errorf("lstore: checkpoint row batch for table %d outside its section", id)
			}
			rows := make([][]Value, 0, nRows)
			for i := uint64(0); i < nRows; i++ {
				tvals, off, err := wal.ParseTypedVals(fp.p, fp.off)
				if err != nil {
					return fmt.Errorf("lstore: checkpoint row: %w", err)
				}
				fp.off = off
				if len(tvals) != curTbl.schema.NumCols() {
					return fmt.Errorf("lstore: checkpoint row arity %d, schema has %d columns", len(tvals), curTbl.schema.NumCols())
				}
				vals := make([]Value, len(tvals))
				for j, tv := range tvals {
					vals[j] = fromTyped(tv)
				}
				rows = append(rows, vals)
			}
			loaded, err := curTbl.store.BulkLoad(rows)
			stats.CheckpointRows += int64(loaded)
			curCount += int64(loaded)
			if err != nil {
				return fmt.Errorf("lstore: checkpoint restore into %q: %w", curTbl.name, err)
			}
		case framePageRange:
			id := fp.uvarint()
			firstRID := fp.uvarint()
			nSlots := fp.uvarint()
			declRows := fp.uvarint()
			nCols := fp.uvarint()
			if fp.err != nil {
				return fmt.Errorf("lstore: checkpoint page frame: %w", fp.err)
			}
			if curTbl == nil || id != curTbl.id {
				return fmt.Errorf("lstore: checkpoint page frame for table %d outside its section", id)
			}
			if nCols != uint64(curTbl.schema.NumCols()) {
				return fmt.Errorf("lstore: checkpoint page frame has %d columns, schema has %d", nCols, curTbl.schema.NumCols())
			}
			img := core.RangeImage{
				FirstRID: types.RID(firstRID),
				N:        int(nSlots),
				Rows:     int(declRows),
				Cols:     make([][]byte, nCols),
			}
			for c := range img.Cols {
				img.Cols[c] = fp.bytes(int(fp.uvarint()))
			}
			img.Starts = fp.bytes(int(fp.uvarint()))
			if fp.err != nil || fp.off != len(fp.p) {
				return fmt.Errorf("lstore: checkpoint page frame malformed: %w", wal.ErrTornFrame)
			}
			installed, err := db.installCkptRange(curTbl, img, declRows)
			if err != nil {
				return err
			}
			stats.CheckpointRows += int64(installed)
			curCount += int64(installed)
		case framePageRef:
			id := fp.uvarint()
			firstRID := fp.uvarint()
			nSlots := fp.uvarint()
			declRows := fp.uvarint()
			nCols := fp.uvarint()
			if fp.err != nil {
				return fmt.Errorf("lstore: checkpoint ref frame: %w", fp.err)
			}
			if curTbl == nil || id != curTbl.id {
				return fmt.Errorf("lstore: checkpoint ref frame for table %d outside its section", id)
			}
			if nCols != uint64(curTbl.schema.NumCols()) {
				return fmt.Errorf("lstore: checkpoint ref frame has %d columns, schema has %d", nCols, curTbl.schema.NumCols())
			}
			ref := core.RangeRef{
				FirstRID: types.RID(firstRID),
				N:        int(nSlots),
				Rows:     int(declRows),
				Cols:     make([]core.SpillDesc, nCols),
			}
			for c := range ref.Cols {
				ref.Cols[c] = fp.spillDesc()
			}
			ref.Starts = fp.spillDesc()
			if fp.err != nil || fp.off != len(fp.p) {
				return fmt.Errorf("lstore: checkpoint ref frame malformed: %w", wal.ErrTornFrame)
			}
			// Resolve against the re-attached spill file; a missing file or a
			// CRC mismatch (wrong or corrupt spill) fails restore loudly.
			img, err := curTbl.store.ResolveRangeRef(ref)
			if err != nil {
				return fmt.Errorf("lstore: checkpoint restore into %q: %w", curTbl.name, err)
			}
			installed, err := db.installCkptRange(curTbl, img, declRows)
			if err != nil {
				return err
			}
			stats.CheckpointRows += int64(installed)
			curCount += int64(installed)
		case frameTableEnd:
			id := fp.uvarint()
			want := fp.uvarint()
			if fp.err != nil {
				return fmt.Errorf("lstore: checkpoint table end: %w", fp.err)
			}
			if curTbl == nil || id != curTbl.id {
				return fmt.Errorf("lstore: checkpoint table end for table %d outside its section", id)
			}
			if curCount != int64(want) {
				return fmt.Errorf("lstore: checkpoint table %q restored %d rows, image declares %d", curTbl.name, curCount, want)
			}
			curTbl = nil
		case frameEnd:
			want := fp.uvarint()
			if fp.err != nil {
				return fmt.Errorf("lstore: checkpoint end: %w", fp.err)
			}
			if stats.CheckpointRows != int64(want) {
				return fmt.Errorf("lstore: checkpoint restored %d rows, image declares %d", stats.CheckpointRows, want)
			}
			if tablesSeen != int64(nTables) {
				return fmt.Errorf("lstore: checkpoint holds %d tables, header declares %d", tablesSeen, nTables)
			}
			return nil
		default:
			return fmt.Errorf("lstore: checkpoint frame tag %d unknown", p[0])
		}
	}
}

// installCkptRange installs one cold-range image into tbl — shared by the
// framePageRange and framePageRef restore paths.
func (db *DB) installCkptRange(tbl *Table, img core.RangeImage, declRows uint64) (int, error) {
	installed, err := tbl.store.InstallRangeImage(img)
	if errors.Is(err, core.ErrImageShape) {
		// The restoring store runs a different RangeSize (or layout):
		// decode the image to rows and take the bulk-load path.
		rows, rerr := tbl.store.RangeImageRows(img)
		if rerr != nil {
			return 0, fmt.Errorf("lstore: checkpoint page restore into %q: %w", tbl.name, rerr)
		}
		installed, err = tbl.store.BulkLoad(rows)
	}
	if err != nil {
		return installed, fmt.Errorf("lstore: checkpoint page restore into %q: %w", tbl.name, err)
	}
	if uint64(installed) != declRows {
		return installed, fmt.Errorf("lstore: checkpoint page frame restored %d rows, frame declares %d", installed, declRows)
	}
	return installed, nil
}

// verifyCkptTable matches a checkpoint table frame against the re-created
// database: same id→name binding, same schema (names, types, key).
func (db *DB) verifyCkptTable(fp *ckptParser) (*Table, error) {
	id := fp.uvarint()
	name := fp.str()
	key := fp.uvarint()
	nCols := fp.uvarint()
	type colDecl struct {
		name string
		typ  byte
	}
	cols := make([]colDecl, 0, nCols)
	for i := uint64(0); i < nCols; i++ {
		cn := fp.str()
		ct := fp.byte()
		cols = append(cols, colDecl{cn, ct})
	}
	if fp.err != nil {
		return nil, fmt.Errorf("lstore: checkpoint table frame: %w", fp.err)
	}
	// Secondary-index columns and lineage follow; parse (validates framing)
	// but restore only consumes them for introspection tooling.
	nSec := fp.uvarint()
	for i := uint64(0); i < nSec; i++ {
		fp.uvarint()
	}
	nRanges := fp.uvarint()
	for i := uint64(0); i < nRanges; i++ {
		fp.byte()    // sealed
		fp.uvarint() // tail count
		nc := fp.uvarint()
		for j := uint64(0); j < nc; j++ {
			fp.uvarint()
			fp.uvarint()
		}
	}
	if fp.err != nil {
		return nil, fmt.Errorf("lstore: checkpoint table frame: %w", fp.err)
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	if id >= uint64(len(db.byID)) {
		return nil, fmt.Errorf("lstore: checkpoint references table %d (%q); re-create all tables before Recover", id, name)
	}
	tbl := db.byID[id]
	if tbl.name != name {
		return nil, fmt.Errorf("lstore: checkpoint table %d is %q, database has %q (creation order must match)", id, name, tbl.name)
	}
	if tbl.schema.NumCols() != int(nCols) || tbl.schema.Key != int(key) {
		return nil, fmt.Errorf("lstore: checkpoint schema mismatch for table %q", name)
	}
	for i, c := range cols {
		if tbl.schema.Cols[i].Name != c.name || byte(tbl.schema.Cols[i].Type) != c.typ {
			return nil, fmt.Errorf("lstore: checkpoint schema mismatch for table %q column %d (%q)", name, i, c.name)
		}
	}
	return tbl, nil
}

// ckptParser is a cursor over one frame's payload with sticky errors.
type ckptParser struct {
	p   []byte
	off int
	err error
}

func (c *ckptParser) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("truncated frame payload")
	}
}

func (c *ckptParser) byte() byte {
	if c.err != nil || c.off >= len(c.p) {
		c.fail()
		return 0
	}
	b := c.p[c.off]
	c.off++
	return b
}

func (c *ckptParser) bytes(n int) []byte {
	if c.err != nil || c.off+n > len(c.p) {
		c.fail()
		return nil
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b
}

func (c *ckptParser) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *ckptParser) str() string {
	n := c.uvarint()
	return string(c.bytes(int(n)))
}

func appendCkptString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// appendSpillDesc serializes one spill descriptor (offset, length, CRC).
func appendSpillDesc(p []byte, d core.SpillDesc) []byte {
	p = binary.AppendUvarint(p, uint64(d.Off))
	p = binary.AppendUvarint(p, uint64(d.Len))
	return binary.AppendUvarint(p, uint64(d.CRC))
}

func (c *ckptParser) spillDesc() core.SpillDesc {
	return core.SpillDesc{
		Off: int64(c.uvarint()),
		Len: uint32(c.uvarint()),
		CRC: uint32(c.uvarint()),
	}
}

// ---------------------------------------------------------------------------
// Background checkpointer

// CheckpointSink receives completed checkpoint images from the background
// checkpointer. Returning an error keeps the previous checkpoint
// authoritative and skips WAL truncation for that round.
type CheckpointSink interface {
	Checkpoint(image []byte, info CheckpointInfo) error
}

// CheckpointBuffer is an in-memory CheckpointSink retaining the latest
// image — the moral equivalent of a checkpoint file that is atomically
// replaced on each round.
type CheckpointBuffer struct {
	mu    sync.Mutex
	image []byte         // guarded by mu
	info  CheckpointInfo // guarded by mu
	taken int            // guarded by mu
}

// Checkpoint stores image as the latest checkpoint.
func (b *CheckpointBuffer) Checkpoint(image []byte, info CheckpointInfo) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.image = append(b.image[:0], image...)
	b.info = info
	b.taken++
	return nil
}

// Latest returns a reader over the most recent image and its info; ok is
// false before the first checkpoint completes.
func (b *CheckpointBuffer) Latest() (io.Reader, CheckpointInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.taken == 0 {
		return nil, CheckpointInfo{}, false
	}
	return bytes.NewReader(append([]byte(nil), b.image...)), b.info, true
}

// Taken returns how many checkpoints have been stored.
func (b *CheckpointBuffer) Taken() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.taken
}

// CheckpointTo runs one complete checkpoint round against sink — write a
// full image, hand it to the sink, truncate the covered WAL prefix — and
// returns the image's description. A sink error keeps the previous
// checkpoint authoritative (and skips truncation). Rounds are serialized
// against Recover through ckptRoundMu; the background checkpointer runs
// exactly this, and a serving layer calls it for its final drain
// checkpoint and after DDL (table creation is not WAL-logged, so the
// checkpoint image is what makes it durable).
func (db *DB) CheckpointTo(sink CheckpointSink) (CheckpointInfo, error) {
	db.ckptRoundMu.Lock()
	defer db.ckptRoundMu.Unlock()
	var buf bytes.Buffer
	info, err := db.Checkpoint(&buf)
	if err != nil {
		return info, err // a poisoned WAL or scan error; nothing reached the sink
	}
	if err := sink.Checkpoint(buf.Bytes(), info); err != nil {
		return info, err // previous checkpoint stays authoritative
	}
	cpCkptPreTruncate.Hit() // crash here: new image durable, old log not yet truncated
	if db.logger != nil {
		db.TruncateWAL(info.LSN) //nolint:errcheck // non-truncatable sinks keep their log
	}
	return info, nil
}

// StartCheckpointer runs the background checkpointer: every interval it
// runs one CheckpointTo round against sink — a complete image, then WAL
// truncation to the image's watermark (bounded by the oldest active
// transaction's begin LSN), so the log stops growing without bound.
// Truncation is skipped when the WAL sink cannot truncate or no WAL is
// attached; the checkpoints themselves still bound restart time. Start it
// after Recover: a round during recovery would capture a half-restored
// database. The checkpointer can be started once per DB; Close stops it.
func (db *DB) StartCheckpointer(every time.Duration, sink CheckpointSink) error {
	if every <= 0 || sink == nil {
		return fmt.Errorf("lstore: StartCheckpointer needs a positive interval and a sink")
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return fmt.Errorf("lstore: StartCheckpointer on closed database")
	}
	if db.ckptStop != nil {
		db.mu.Unlock()
		return fmt.Errorf("lstore: checkpointer already started")
	}
	db.ckptSink = sink
	db.ckptStop = make(chan struct{})
	db.ckptDone = make(chan struct{})
	stop, done := db.ckptStop, db.ckptDone
	db.mu.Unlock()
	go db.checkpointLoop(every, sink, stop, done)
	return nil
}

// checkpointRound is one background-checkpointer cycle against the
// configured sink; errors are dropped (the previous image stays
// authoritative). The torture tests drive rounds through it manually.
func (db *DB) checkpointRound() {
	db.CheckpointTo(db.ckptSink) //nolint:errcheck // see doc comment
}

// checkpointLoop runs checkpoint rounds every tick until stop closes.
// Round errors are dropped: the next tick retries, the previous image stays
// authoritative. The loop is launched after StartCheckpointer releases mu
// (CheckpointTo takes ckptRoundMu, which is ordered before mu) and takes
// its channels as arguments, so it never reads the mu-guarded fields.
func (db *DB) checkpointLoop(every time.Duration, sink CheckpointSink, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			db.CheckpointTo(sink) //nolint:errcheck // see doc comment
		}
	}
}
