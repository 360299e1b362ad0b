package wal

import "lstore/internal/fault"

// Group commit, the real thing (§5.1.3 "group commit" made concurrent):
//
// AppendCommit used to be append-then-Flush, which under N concurrent
// committers degenerates to N flushes — and with an fsync-backed FileSink,
// one fsync per transaction is the write-throughput ceiling. The committer
// in this file turns concurrent AppendCommit callers into batches: every
// caller appends its commit record (cheap, buffered, serialized on l.mu)
// and then enqueues on the open commit batch; the first enqueuer becomes
// the batch LEADER, seals the batch, and runs the one Flush (buffer push +
// fsync) that makes every record appended so far durable. Followers block
// until a flush whose coverage reaches their commit LSN has run, and take
// that flush's verdict:
//
//   - success: the follower's commit record has LSN at or below the flushed
//     watermark, so the one fsync vouched for it too — it returns nil
//     without ever touching the device.
//
//   - failure: the flush (or its fsync) poisoned the logger (see
//     flushLocked: never retry-and-trust), and EVERY waiter in the batch
//     fails with the poisoning error. No waiter may be told "durable" on
//     the strength of a flush that did not complete, and no later retry can
//     un-poison the log — this is the PR-5/PR-7 durability contract carried
//     over the batch boundary unchanged.
//
// Commit records that were covered by an EARLIER successful flush stay
// acknowledged even if a later batch poisons the logger: durability already
// happened; the poison only gates new work.
//
// The protocol is deliberately timer-free (no batching window): batches
// form from genuine concurrency — committers that arrive while a leader's
// flush is in flight pile onto the next batch, so batch size adapts to the
// fsync latency and the offered load, and a lone committer degrades to
// exactly the old append-then-flush behavior (same syncs, same semantics).
// Timer-free also keeps internal/wal deterministic (the nodeterminism
// analyzer bans wall-clock reads here).
//
// Lock order: gcMu is acquired BEFORE l.mu (the leader reads
// FlushedLSN/Err and runs Flush while coordinating through gcMu); l.mu is
// never held while acquiring gcMu.

// cpGroupBatchFlush is hit by the batch leader after sealing the batch and
// before running the batch flush: a crash here is the worst case for group
// commit — several transactions' commit records are buffered, none durable,
// and every one of them must vanish on recovery.
var cpGroupBatchFlush = fault.Register("wal.groupcommit.batch-flush")

// commitWait makes the commit record at lsn durable through the group
// committer: the caller either becomes the leader of the open batch and
// flushes for everyone, or waits for a covering flush and inherits its
// verdict. See the package comment above for the full protocol.
// Unlocks are explicit (no defer): the leader releases gcMu across the
// flush, and a crash-point panic inside the flush must propagate as-is —
// the simulated process is dead, and a deferred unlock would fire on a
// mutex the leader no longer holds.
func (l *Logger) commitWait(lsn uint64) error {
	l.gcMu.Lock()
	for {
		// Covered by a flush that succeeded: durable. This is checked before
		// the poison check on purpose — a commit covered by an earlier good
		// flush stays acknowledged even if a later batch poisoned the log.
		if l.FlushedLSN() >= lsn {
			l.gcMu.Unlock()
			return nil
		}
		if err := l.Err(); err != nil {
			l.gcMu.Unlock()
			return err
		}
		if !l.gcFlushing {
			// Leader: seal the batch — everything appended up to now,
			// including every waiter's commit record — and flush once for
			// all of it. gcMu is released across the flush so new
			// committers can append and enqueue onto the next batch while
			// this one syncs.
			l.gcFlushing = true
			l.gcBatches++
			l.gcMu.Unlock()
			cpGroupBatchFlush.Hit() // crash here: batch sealed, nothing durable
			err := l.Flush()
			l.gcMu.Lock()
			l.gcFlushing = false
			l.gcWake.Broadcast()
			l.gcMu.Unlock()
			return err
		}
		l.gcWake.Wait()
	}
}

// GroupBatches returns how many commit batches a leader has flushed.
// Syncs()/GroupBatches() ≈ 1 when only commits flush; commits divided by
// GroupBatches is the achieved batch size.
func (l *Logger) GroupBatches() int {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.gcBatches
}
