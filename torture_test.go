package lstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"lstore/internal/fault"
	"lstore/internal/wal"
)

// Crash-torture property suite: for every registered crash point and a sweep
// of fault shapes, a randomized workload is "killed" (the crash point panics
// with *fault.Crash, the DB is abandoned with whatever locks and half-done
// state it held), the store is reopened from DURABLE BYTES ONLY, recovery
// runs, and the result is checked against the committed-prefix oracle: the
// recovered state must equal some candidate state at or after the last
// acknowledged commit — acknowledged commits never vanish, unacknowledged
// ones may land either way, and nothing else can appear.
//
// The same harness runs over the in-memory sinks and the file-backed sinks;
// the file variant's "kill" closes every handle and re-reads the paths cold,
// so truncation (rewrite-and-rename on disk) and checkpoint replacement
// (write-temp-then-rename) are exercised against a real filesystem. Every
// kill is recovered three ways: from the durable bytes into a log-less
// database, continuing the surviving log, and through the production open
// path (server.OpenStore) over copies of the durable files.

// tortureScale stretches the suite for long-run mode: LSTORE_TORTURE_ITERS=n
// multiplies workload sizes (CI sets it for the nightly deep sweep).
func tortureScale() int {
	if s := os.Getenv("LSTORE_TORTURE_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// tortureOpts are the table options every torture table runs with: ranges
// tiny enough that seals happen every few commits, and beyond-RAM base
// storage over a fresh in-memory spill with a pool cap of a few frames — so
// the spill-write, pool miss-read, and spill-sync paths all sit inside the
// crash sweep (calibration fails on any point the workload cannot reach).
func tortureOpts() TableOptions {
	return TableOptions{
		RangeSize:           8,
		DisableAutoMerge:    true,
		Spill:               NewMemSpill(),
		PoolBytes:           64,
		CheckpointSpillRefs: true,
	}
}

// tortureDev is one durable "machine": a raw WAL device and a checkpoint
// sink, plus the cold-read accessors a post-kill recovery is allowed to
// use and the restart that reopens the log for appending. Nothing else
// survives the crash.
type tortureDev struct {
	inner      io.Writer
	ckpt       CheckpointSink
	durableWAL func(t *testing.T) []byte
	latestCkpt func(t *testing.T) ([]byte, bool)
	reopen     func(t *testing.T) tortureLog
}

// tortureLog is the surviving WAL device as a restart reopens it: a sink
// the new database continues, and the bytes it retained.
type tortureLog interface {
	io.Writer
	Retained() ([]byte, error)
}

type tortureMedia struct {
	name string
	open func(t *testing.T) *tortureDev
}

func tortureMediaList() []tortureMedia {
	return []tortureMedia{
		{name: "mem", open: func(t *testing.T) *tortureDev {
			buf := &WALBuffer{}
			cb := &CheckpointBuffer{}
			return &tortureDev{
				inner: buf,
				ckpt:  cb,
				durableWAL: func(t *testing.T) []byte {
					return append([]byte(nil), buf.Bytes()...)
				},
				latestCkpt: func(t *testing.T) ([]byte, bool) {
					r, _, ok := cb.Latest()
					if !ok {
						return nil, false
					}
					data, err := io.ReadAll(r)
					if err != nil {
						t.Fatal(err)
					}
					return data, true
				},
				reopen: func(t *testing.T) tortureLog { return buf },
			}
		}},
		{name: "file", open: func(t *testing.T) *tortureDev {
			dir := t.TempDir()
			walPath := filepath.Join(dir, "wal.log")
			ckptPath := filepath.Join(dir, "ckpt.img")
			ws, err := OpenWALFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			live := ws // the handle the running database writes through
			t.Cleanup(func() { live.Close() })
			cs, err := NewFileCheckpointSink(ckptPath)
			if err != nil {
				t.Fatal(err)
			}
			return &tortureDev{
				inner: ws,
				ckpt:  cs,
				durableWAL: func(t *testing.T) []byte {
					// The kill: drop the live handle, reopen the path cold
					// and read back what the disk holds.
					live.Close()
					s2, err := OpenWALFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					defer s2.Close()
					data, err := s2.Retained()
					if err != nil {
						t.Fatal(err)
					}
					return data
				},
				latestCkpt: func(t *testing.T) ([]byte, bool) {
					cs2, err := NewFileCheckpointSink(ckptPath)
					if err != nil {
						t.Fatal(err)
					}
					r, _, ok := cs2.Latest()
					if !ok {
						return nil, false
					}
					data, err := io.ReadAll(r)
					if err != nil {
						t.Fatal(err)
					}
					return data, true
				},
				reopen: func(t *testing.T) tortureLog {
					live.Close() // the kill, if the previous run still held it
					s, err := OpenWALFile(walPath)
					if err != nil {
						t.Fatal(err)
					}
					live = s
					return s
				},
			}
		}},
	}
}

// tortureRun is the oracle's bookkeeping. states[0] is the initial empty
// state; a candidate is appended immediately before each Commit attempt, so
// after a kill the recovered state must equal states[j] for some j >= acked
// (a definitively-aborted candidate is popped back off).
type tortureRun struct {
	states []map[int64]Row
	acked  int
}

func newTortureRun() *tortureRun {
	return &tortureRun{states: []map[int64]Row{{}}}
}

func copyState(m map[int64]Row) map[int64]Row {
	out := make(map[int64]Row, len(m))
	for k, r := range m {
		cr := Row{}
		for c, v := range r {
			cr[c] = v
		}
		out[k] = cr
	}
	return out
}

func sameTortureState(a, b map[int64]Row) bool {
	if len(a) != len(b) {
		return false
	}
	for key, ar := range a {
		br, ok := b[key]
		if !ok {
			return false
		}
		for col, av := range ar {
			if !av.Equal(br[col]) {
				return false
			}
		}
	}
	return true
}

// openTortureDB opens a database on dev the way a durable store
// bootstraps: table "t" is created and checkpointed before any commit, so
// a non-empty log always has an image to pair with. plan injects faults on
// the WAL device.
func openTortureDB(t *testing.T, dev *tortureDev, plan ...fault.Rule) (*DB, *Table) {
	t.Helper()
	db := Open(WithWAL(fault.NewSink(dev.inner, plan...), nil))
	db.ckptSink = dev.ckpt
	tbl, err := db.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	db.checkpointRound()
	return db, tbl
}

// tortureWorkload runs sequential random transactions (insert/update/delete
// over a 16-key space, 1–3 ops each) against db, checkpointing every 7th
// commit, recording oracle candidates into run IN PLACE so a crash mid-call
// leaves the bookkeeping consistent. It stops on its own once the WAL is
// poisoned (a dead device ends the workload; it must not end the test).
func tortureWorkload(db *DB, tbl *Table, rng *rand.Rand, commits int, run *tortureRun) {
	names := []string{"ada", "bob", "cleo", "dan"}
	committed := run.states[len(run.states)-1]
	done := 0
	for c := 0; c < commits; c++ {
		if db.WALInfo().Err != nil {
			return
		}
		tx := db.Begin(ReadCommitted)
		cand := copyState(committed)
		nops := 1 + rng.Intn(3)
		opFailed := false
		for o := 0; o < nops; o++ {
			key := rng.Int63n(16)
			var opErr error
			switch rng.Intn(5) {
			case 0, 1:
				name := Value(Null())
				if rng.Intn(4) > 0 {
					name = Str(names[rng.Intn(len(names))])
				}
				v := rng.Int63n(1000)
				opErr = tbl.Insert(tx, Row{"id": Int(key), "name": name, "v": Int(v)})
				if opErr == nil {
					cand[key] = Row{"id": Int(key), "name": name, "v": Int(v)}
				}
			case 2, 3:
				v := rng.Int63n(1000)
				opErr = tbl.Update(tx, key, Row{"v": Int(v)})
				if opErr == nil {
					cand[key]["v"] = Int(v)
				}
			default:
				opErr = tbl.Delete(tx, key)
				if opErr == nil {
					delete(cand, key)
				}
			}
			if opErr != nil {
				// Duplicate insert / missing key / poisoned txn: abort the
				// whole transaction so the oracle stays trivially aligned.
				tx.Abort()
				opFailed = true
				break
			}
		}
		if opFailed {
			continue
		}
		run.states = append(run.states, cand)
		err := tx.Commit()
		switch {
		case err == nil:
			committed = cand
			run.acked = len(run.states) - 1
			done++
		case errors.Is(err, ErrDurabilityUnknown):
			// Ambiguous: the candidate stays as an allowed outcome.
		default:
			// Definitive abort (incomplete log): the candidate can never
			// become durable.
			run.states = run.states[:len(run.states)-1]
		}
		// Checkpoint every 7th commit, but not near the end of the run: the
		// calibration pass needs committed transactions left in the log tail
		// so the redo-path crash points are reachable.
		if done > 0 && done%7 == 0 && c+8 < commits {
			db.checkpointRound()
			done++ // one round per boundary, not one per failed attempt after it
		}
		// Foreground merge every few commits: consolidation republishes base
		// pages through the spill, putting the merge-publish path (and its
		// crash points) on the torture goroutine where a trip can kill it.
		if done > 0 && done%5 == 0 {
			tbl.Merge()
		}
	}
}

// recoverTorture rebuilds a store from durable bytes only, retrying when a
// recovery-path crash point kills the first attempt (a double crash: every
// retry starts over from the SAME durable bytes).
func recoverTorture(t *testing.T, durable, image []byte, haveCkpt bool) map[int64]Row {
	t.Helper()
	for attempt := 0; attempt < 4; attempt++ {
		db2 := Open()
		tbl2, err := db2.CreateTable("t", ckptSchema(), tortureOpts())
		if err != nil {
			t.Fatal(err)
		}
		var ckptR io.Reader
		if haveCkpt {
			ckptR = bytes.NewReader(image)
		}
		var rerr error
		crash := fault.RunToCrash(func() {
			_, rerr = Recover(db2, ckptR, bytes.NewReader(durable))
		})
		if crash != nil {
			continue // killed mid-recovery; abandon db2 and start over
		}
		if rerr != nil {
			t.Fatalf("recovery from durable bytes failed: %v", rerr)
		}
		state := tableState(t, tbl2, db2.Now())
		db2.Close()
		return state
	}
	t.Fatal("recovery kept crashing after repeated attempts")
	return nil
}

// restartOn restarts the way a durable store does: a new database attaches
// to the reopened log (cutting any torn tail), re-creates table "t" and
// recovers the latest image plus the log's bytes. It keeps appending to
// the same log.
func restartOn(t *testing.T, dev *tortureDev) (*DB, *Table, RecoverStats) {
	t.Helper()
	log := dev.reopen(t)
	db := Open(WithWAL(log, nil))
	tbl, err := db.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	data, err := log.Retained()
	if err != nil {
		t.Fatal(err)
	}
	var ckptR io.Reader
	if image, ok := dev.latestCkpt(t); ok {
		ckptR = bytes.NewReader(image)
	}
	stats, err := Recover(db, ckptR, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("recovery continuing the log failed: %v", err)
	}
	if err := db.WALInfo().Err; err != nil {
		t.Fatalf("continued log is poisoned: %v", err)
	}
	db.ckptSink = dev.ckpt
	return db, tbl, stats
}

// recoverContinuing is restartOn, started over from whatever the devices
// then hold whenever a recovery-path crash point kills an attempt. The
// returned database is live.
func recoverContinuing(t *testing.T, dev *tortureDev) (map[int64]Row, *DB, *Table) {
	t.Helper()
	for attempt := 0; attempt < 4; attempt++ {
		var (
			db  *DB
			tbl *Table
		)
		if crash := fault.RunToCrash(func() { db, tbl, _ = restartOn(t, dev) }); crash != nil {
			continue // killed mid-restart; abandon db and start over
		}
		return tableState(t, tbl, db.Now()), db, tbl
	}
	t.Fatal("restart kept crashing after repeated attempts")
	return nil, nil, nil
}

// OpenStoreForTorture is the production open path, server.OpenStore, over
// a log file and an image file; it returns table "t"'s rows. The server
// imports lstore, so only the external test package can reach it:
// torture_store_test.go sets it.
var OpenStoreForTorture func(walPath, ckptPath string) (map[int64]Row, error)

// recoverViaStore copies the durable log and image into files and opens
// them with OpenStoreForTorture, retrying when a crash point kills an
// attempt (the retry opens whatever the killed attempt left on disk).
func recoverViaStore(t *testing.T, durable, image []byte, haveCkpt bool) map[int64]Row {
	t.Helper()
	dir := t.TempDir()
	walPath, ckptPath := filepath.Join(dir, "wal"), filepath.Join(dir, "ckpt")
	if err := os.WriteFile(walPath, durable, 0o644); err != nil {
		t.Fatal(err)
	}
	if haveCkpt {
		if err := os.WriteFile(ckptPath, image, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 0; attempt < 4; attempt++ {
		var (
			state map[int64]Row
			err   error
		)
		if crash := fault.RunToCrash(func() { state, err = OpenStoreForTorture(walPath, ckptPath) }); crash != nil {
			continue
		}
		if err != nil {
			t.Fatalf("store open of the durable files failed: %v", err)
		}
		return state
	}
	t.Fatal("store open kept crashing after repeated attempts")
	return nil
}

// restartEveryWay recovers a killed run three ways — from the durable
// bytes, through the store open path, and continuing the surviving log —
// and holds each result to the committed-prefix oracle.
func restartEveryWay(t *testing.T, dev *tortureDev, run *tortureRun, durable, image []byte, haveCkpt bool, label string) {
	t.Helper()
	assertCommittedPrefix(t, run, recoverTorture(t, durable, image, haveCkpt), label)
	assertCommittedPrefix(t, run, recoverViaStore(t, durable, image, haveCkpt), label+", store open")
	recovered, db, _ := recoverContinuing(t, dev)
	db.Close()
	assertCommittedPrefix(t, run, recovered, label+", continuing the log")
}

func assertCommittedPrefix(t *testing.T, run *tortureRun, recovered map[int64]Row, label string) {
	t.Helper()
	for j := len(run.states) - 1; j >= run.acked; j-- {
		if sameTortureState(run.states[j], recovered) {
			return
		}
	}
	t.Fatalf("%s: recovered state (%d rows) matches no candidate in [%d, %d] — an acknowledged commit vanished or a phantom appeared",
		label, len(recovered), run.acked, len(run.states)-1)
}

// tortureShapes are the fault shapes swept per crash point: a pure kill, a
// torn write (partial bytes reach the device, then an error), a failed
// fsync, ENOSPC-style persistent write failure, and an error that heals
// after one occurrence (the logger must stay poisoned anyway).
var tortureShapes = []struct {
	name string
	plan []fault.Rule
}{
	{"none", nil},
	{"torn-write", []fault.Rule{fault.TornWrite(3, 7)}},
	{"fail-sync", []fault.Rule{fault.FailSync(2)}},
	{"enospc", []fault.Rule{fault.NoSpace(4)}},
	{"error-once-heal", []fault.Rule{fault.FailWrite(2)}},
}

// calibrateTorture runs the workload once with no faults armed, counting
// crash-point traffic. Every registered point must be reached — a point the
// suite cannot reach is a hole in the torture coverage, and the per-point
// trip depth is chosen inside the observed range.
func calibrateTorture(t *testing.T, media tortureMedia, seed int64, commits int) map[string]int64 {
	t.Helper()
	fault.Reset()
	fault.EnableCounting()
	dev := media.open(t)
	db, tbl := openTortureDB(t, dev)
	run := newTortureRun()
	tortureWorkload(db, tbl, rand.New(rand.NewSource(seed)), commits, run)
	db.Close()
	durable := dev.durableWAL(t)
	image, haveCkpt := dev.latestCkpt(t)
	restartEveryWay(t, dev, run, durable, image, haveCkpt, "calibration")
	hits := map[string]int64{}
	for _, name := range fault.Points() {
		hits[name] = fault.Hits(name)
	}
	fault.Reset()
	return hits
}

func runCrashScenario(t *testing.T, media tortureMedia, point string, nth int, plan []fault.Rule, seed int64, commits int) {
	t.Helper()
	fault.Reset()
	defer fault.Reset()
	dev := media.open(t)
	db, tbl := openTortureDB(t, dev, plan...)
	run := newTortureRun()
	rng := rand.New(rand.NewSource(seed))
	fault.Trip(point, nth)
	// The kill. A nil crash is fine: an injected fault can poison the path
	// before the point is reached — the oracle must hold either way.
	fault.RunToCrash(func() { tortureWorkload(db, tbl, rng, commits, run) })

	durable := dev.durableWAL(t)
	image, haveCkpt := dev.latestCkpt(t)

	// Whatever the crash left behind, the offline verifier must account for
	// every durable byte as either clean frames or a classified torn tail.
	rep := wal.Verify(bytes.NewReader(durable))
	if rep.ReadErr != nil {
		t.Fatalf("verify of durable log failed: %v", rep.ReadErr)
	}
	if rep.CleanBytes+rep.TornBytes != int64(len(durable)) {
		t.Fatalf("verify accounts for %d+%d of %d durable bytes", rep.CleanBytes, rep.TornBytes, len(durable))
	}
	if haveCkpt {
		crep := VerifyCheckpoint(bytes.NewReader(image))
		if !crep.Complete {
			t.Fatalf("durable checkpoint image is not complete: %s", crep.Detail)
		}
	}

	restartEveryWay(t, dev, run, durable, image, haveCkpt, point)
}

// TestCrashTortureEveryPointEveryShape is the acceptance sweep: every
// registered crash point × every fault shape, over both the in-memory and
// the file-backed sinks.
func TestCrashTortureEveryPointEveryShape(t *testing.T) {
	commits := 40 * tortureScale()
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			hits := calibrateTorture(t, media, 1, commits)
			for _, p := range fault.Points() {
				if hits[p] == 0 {
					t.Fatalf("crash point %q is never reached by the torture workload — coverage hole", p)
				}
			}
			seed := int64(0xC0FFEE)
			for _, p := range fault.Points() {
				for _, shape := range tortureShapes {
					seed++
					s := seed
					t.Run(p+"/"+shape.name, func(t *testing.T) {
						nth := int(hits[p]+1) / 2
						if nth < 1 {
							nth = 1
						}
						runCrashScenario(t, media, p, nth, shape.plan, s, commits)
					})
				}
			}
		})
	}
}

// TestCrashTortureContinueLog sweeps every crash point through TWO kills
// on one log: a workload is killed at the point, the restart continues the
// surviving log, a second workload on the recovered database is killed at
// the same point, and a second restart continues the log again. Both
// restarts must land on a committed prefix of their own run — the second
// one reads the first run's records and the second run's appends as one
// LSN sequence, through whatever truncations and torn tails the kills left.
func TestCrashTortureContinueLog(t *testing.T) {
	commits := 40 * tortureScale()
	for _, media := range tortureMediaList() {
		t.Run(media.name, func(t *testing.T) {
			hits := calibrateTorture(t, media, 1, commits)
			seed := int64(0xBEEF)
			for _, p := range fault.Points() {
				seed++
				s := seed
				nth := max(int(hits[p]+1)/2, 1)
				t.Run(p, func(t *testing.T) {
					fault.Reset()
					defer fault.Reset()
					rng := rand.New(rand.NewSource(s))
					dev := media.open(t)
					db, tbl := openTortureDB(t, dev)
					run := newTortureRun()
					fault.Trip(p, nth)
					fault.RunToCrash(func() { tortureWorkload(db, tbl, rng, commits, run) })
					state, db2, tbl2 := recoverContinuing(t, dev)
					assertCommittedPrefix(t, run, state, p+", first restart")

					run2 := newTortureRun()
					run2.states[0] = state
					fault.Trip(p, nth)
					fault.RunToCrash(func() { tortureWorkload(db2, tbl2, rng, commits, run2) })
					state, db3, _ := recoverContinuing(t, dev)
					db3.Close()
					assertCommittedPrefix(t, run2, state, p+", second restart")
				})
			}
		})
	}
}

// TestTortureTornTailByteSweep is the byte-granular half of the acceptance:
// the log truncated at EVERY byte offset must recover to exactly the state
// at the last commit boundary at or below the cut. No cut may error, invent
// rows, or resurrect an uncommitted suffix.
func TestTortureTornTailByteSweep(t *testing.T) {
	fault.Reset()
	rng := rand.New(rand.NewSource(7))
	var log bytes.Buffer
	db := Open(WithWAL(&log, nil))
	tbl, err := db.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	committed := map[int64]Row{}
	states := []map[int64]Row{{}}
	bounds := []int{0} // log length at each commit boundary
	commits := 30 * tortureScale()
	for attempt := 0; attempt < commits*6 && len(states) <= commits; attempt++ {
		run := newTortureRun()
		run.states[0] = committed
		tortureWorkload(db, tbl, rng, 1, run)
		if run.acked > 0 {
			committed = run.states[run.acked]
			states = append(states, copyState(committed))
			bounds = append(bounds, log.Len())
		}
	}
	db.Close()
	data := log.Bytes()
	if len(states) < 10 {
		t.Fatalf("only %d commits; workload too timid for a sweep", len(states)-1)
	}
	for cut := 0; cut <= len(data); cut++ {
		j := sort.SearchInts(bounds, cut+1) - 1
		recovered := recoverTorture(t, data[:cut], nil, false)
		if !sameTortureState(states[j], recovered) {
			t.Fatalf("cut at byte %d of %d: recovered %d rows, want the state at commit boundary %d (%d rows)",
				cut, len(data), len(recovered), j, len(states[j]))
		}
	}
}

// TestTortureCheckpointTornSweep is the checkpoint half: an image truncated
// at EVERY byte offset must fail restore loudly (and fail offline
// verification), never load partially; the full image must verify, restore,
// and describe itself correctly. A log's torn tail is a meaningful crash
// cut; a checkpoint's is corruption.
func TestTortureCheckpointTornSweep(t *testing.T) {
	fault.Reset()
	db := Open()
	tbl, err := db.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := int64(0); i < 40; i++ {
		tx := db.Begin(ReadCommitted)
		if err := tbl.Insert(tx, Row{"id": Int(i), "name": Str("r" + strconv.FormatInt(i, 10)), "v": Int(rng.Int63n(500))}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	want := tableState(t, tbl, db.Now())
	var img bytes.Buffer
	info, err := db.Checkpoint(&img)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	image := img.Bytes()

	full := VerifyCheckpoint(bytes.NewReader(image))
	if !full.Complete {
		t.Fatalf("full image does not verify: %s", full.Detail)
	}
	if full.Info.LSN != info.LSN || full.Info.Rows != info.Rows || full.Info.Tables != info.Tables || full.Info.Time != info.Time {
		t.Fatalf("verifier reconstructed %+v, checkpoint reported %+v", full.Info, info)
	}
	db2 := Open()
	tbl2, err := db2.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, bytes.NewReader(image), nil); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, want, tableState(t, tbl2, db2.Now()), "full image restore")
	db2.Close()

	for cut := 0; cut < len(image); cut++ {
		if rep := VerifyCheckpoint(bytes.NewReader(image[:cut])); rep.Complete {
			t.Fatalf("image truncated to %d of %d bytes verifies as complete", cut, len(image))
		}
		db3 := Open()
		if _, err := db3.CreateTable("t", ckptSchema(), tortureOpts()); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(db3, bytes.NewReader(image[:cut]), nil); err == nil {
			t.Fatalf("image truncated to %d of %d bytes restored silently", cut, len(image))
		}
		db3.Close()
	}

	// Bit rot: a flipped byte anywhere must break verification too.
	for i := 0; i < 32; i++ {
		mut := append([]byte(nil), image...)
		mut[rng.Intn(len(mut))] ^= 0x5A
		if rep := VerifyCheckpoint(bytes.NewReader(mut)); rep.Complete {
			t.Fatal("corrupted image verifies as complete")
		}
	}
}

// TestFileBackedRecoveryWithDiskTruncation pins the full file-backed round
// trip deterministically: workload → checkpoint to a real file → a real
// rewrite-and-rename TruncateTo on disk → kill → cold reopen of both paths →
// recover → exact state. This is the acceptance case "a file that went
// through a real TruncateTo on disk".
func TestFileBackedRecoveryWithDiskTruncation(t *testing.T) {
	fault.Reset()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "ckpt.img")
	ws, err := OpenWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewFileCheckpointSink(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(WithWAL(ws, nil))
	db.ckptSink = cs
	tbl, err := db.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[int64]Row{}
	put := func(k, v int64) {
		tx := db.Begin(ReadCommitted)
		row := Row{"id": Int(k), "name": Str("x"), "v": Int(v)}
		if _, ok := shadow[k]; ok {
			if err := tbl.Update(tx, k, Row{"v": Int(v)}); err != nil {
				t.Fatal(err)
			}
			shadow[k]["v"] = Int(v)
		} else {
			if err := tbl.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
			shadow[k] = row
		}
		mustCommit(t, tx)
	}
	for i := int64(0); i < 12; i++ {
		put(i%8, i*10)
	}
	preLen := ws.Len()
	db.checkpointRound() // checkpoint to disk, then a REAL TruncateTo on disk
	if db.WALInfo().TruncatedLSN == 0 {
		t.Fatal("checkpoint round did not truncate the on-disk log")
	}
	if ws.Len() >= preLen {
		t.Fatalf("on-disk log did not shrink: %d -> %d bytes", preLen, ws.Len())
	}
	if cs.Taken() != 1 {
		t.Fatalf("checkpoint file written %d times, want 1", cs.Taken())
	}
	for i := int64(0); i < 5; i++ {
		put(i, 1000+i) // tail work above the watermark
	}
	// Kill: close every handle; reopen both paths cold.
	db.Close()
	ws.Close()
	ws2, err := OpenWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	tail, err := ws2.Retained()
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := NewFileCheckpointSink(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	ckptR, cinfo, ok := cs2.Latest()
	if !ok {
		t.Fatal("checkpoint file not found on cold reopen")
	}
	if cinfo.LSN == 0 || cinfo.Rows == 0 {
		t.Fatalf("cold-read checkpoint info not reconstructed: %+v", cinfo)
	}
	// The retained file is a pure tail: its first record sits above the
	// truncation point.
	rep := wal.Verify(bytes.NewReader(tail))
	if rep.Records == 0 || rep.FirstLSN <= 1 {
		t.Fatalf("retained log is not a truncated tail: first LSN %d of %d records", rep.FirstLSN, rep.Records)
	}
	db2 := Open()
	defer db2.Close()
	tbl2, err := db2.CreateTable("t", ckptSchema(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db2, ckptR, bytes.NewReader(tail)); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, shadow, tableState(t, tbl2, db2.Now()), "file-backed recovery after disk truncation")
}
