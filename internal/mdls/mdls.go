// Package mdls is a log-structured checkpoint+journal metadata store
// backend: the second, structurally different point for store
// ablations. Where the default mdb engine group-commits into the
// disk's shared journal (or batches dumps on a timer), mdls appends
// every durable commit to the tail of its own on-disk journal — no
// per-commit fsync, sequential head position, so appends are cheap and
// each commit is durable the moment its append lands. The price is
// paid elsewhere: when the journal outgrows the live row set the
// engine freezes the plane's transactions and rewrites a checkpoint
// image (a compaction stall), and recovery is a segmented scan that
// seeks between journal segments and rebuilds indexes record by
// record, instead of one sequential WAL stream.
package mdls

import (
	"time"

	"cofs/internal/disk"
	"cofs/internal/mdb"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// Default compaction policy: never compact a journal shorter than
// MinRecords, otherwise compact when it exceeds Factor times the live
// row count (the classic log-structured write-amplification dial).
const (
	DefaultCompactMinRecords = 4096
	DefaultCompactFactor     = 4
)

// Segment granularity of the recovery scan: each segment lives at its
// own journal position, so replay pays one positioning cost per
// segment rather than one for the whole log.
const recoverSegmentRecords = 4096

// Engine is the log-structured durability engine. Exported counters
// are for tests and tooling; they are not folded into the plane's
// counter set (baselines pin that set exactly).
type Engine struct {
	mu *sim.Mutex // serializes the journal head across committers

	// pos is the journal head's block position; appends land at pos+1
	// (sequential), checkpoint images and recovery segments seek.
	pos        int64
	compacting bool

	CompactMinRecords int
	CompactFactor     int

	Appends          int64
	Compactions      int64
	CompactedRecords int64
}

// NewEngine creates an engine with the default compaction policy.
func NewEngine(env *sim.Env) *Engine {
	return &Engine{
		mu:                sim.NewMutex(env, "mdls.journal"),
		CompactMinRecords: DefaultCompactMinRecords,
		CompactFactor:     DefaultCompactFactor,
	}
}

// New builds a database on the mdls engine; opt.FlushInterval is
// ignored — every append is durable, there is no deferred-flush window.
func New(env *sim.Env, d *disk.Disk, opt store.Options) *mdb.DB {
	return mdb.NewWithEngine(env, d, opt.OpTime, NewEngine(env))
}

// Name implements mdb.Engine.
func (e *Engine) Name() string { return "mdls" }

// Commit appends the unflushed log tail at the journal head —
// back-to-back appends hit the sequential cost — and marks it durable
// without an fsync. Compaction is considered after the head lock
// drops.
func (e *Engine) Commit(p *sim.Proc, db *mdb.DB) {
	if db.Disk() == nil {
		return
	}
	e.mu.Lock(p)
	target := db.WALLen()
	if pending := target - db.FlushedRecords(); pending > 0 {
		e.Appends++
		e.pos++
		db.Disk().Write(p, e.pos, int64(pending)*64)
		db.MarkFlushedTo(target)
	}
	e.mu.Unlock(p)
	e.maybeCompact(p, db)
}

// Force implements the handoff-import ack: append the tail and fsync
// it before returning. No compaction here — the migration protocol's
// ack latency must not absorb a stall.
func (e *Engine) Force(p *sim.Proc, db *mdb.DB) {
	if db.Disk() == nil {
		return
	}
	e.mu.Lock(p)
	target := db.WALLen()
	db.LogFlushes++
	e.pos++
	db.Disk().Write(p, e.pos, int64(target-db.FlushedRecords())*64)
	db.Disk().Sync(p)
	db.MarkFlushedTo(target)
	e.mu.Unlock(p)
}

// RecoverScan reads the journal back segment by segment — one seek per
// segment, not one for the log — and charges the per-record index
// rebuild that replaying a compacted log implies.
func (e *Engine) RecoverScan(p *sim.Proc, db *mdb.DB) {
	n := db.WALLen()
	if db.Disk() == nil || n == 0 {
		return
	}
	pos := e.pos + 2 // off the head: the scan starts with a seek
	for off := 0; off < n; off += recoverSegmentRecords {
		seg := n - off
		if seg > recoverSegmentRecords {
			seg = recoverSegmentRecords
		}
		db.Disk().Read(p, pos, int64(seg)*64)
		pos += 2 // next segment is not adjacent: pay the seek
	}
	if db.OpTime() > 0 {
		// Index rebuild: a fraction of a table op per replayed record.
		p.Sleep(time.Duration(n) * db.OpTime() / 4)
	}
}

// CheckpointDump writes the compacted image into a fresh journal
// segment (a seek away from the head) and fsyncs it.
func (e *Engine) CheckpointDump(p *sim.Proc, db *mdb.DB, rows int64) {
	if db.Disk() == nil {
		return
	}
	e.pos += 8
	db.Disk().Write(p, e.pos, rows*64)
	db.Disk().Sync(p)
}

// maybeCompact rewrites the journal as a checkpoint image when it has
// outgrown the live rows: Freeze stalls new transactions for the whole
// dump — the compaction stall that is this backend's structural cost.
func (e *Engine) maybeCompact(p *sim.Proc, db *mdb.DB) {
	if e.compacting {
		return
	}
	n := db.WALLen()
	if n < e.CompactMinRecords || n < e.CompactFactor*db.DurableRows() {
		return
	}
	e.compacting = true
	// Lock order is journal head, then transactions: an append mid-disk
	// sleep would otherwise mark its pre-compaction target flushed after
	// the rewrite shrank the log under it.
	e.mu.Lock(p)
	db.Freeze(p)
	before := db.WALLen() // re-read under the freeze: commits may have landed
	db.Checkpoint(p)
	e.Compactions++
	e.CompactedRecords += int64(before - db.WALLen())
	db.Thaw(p)
	e.mu.Unlock(p)
	e.compacting = false
}

func init() {
	// The log-structured checkpoint+journal store: cheap durable
	// appends, periodic compaction stalls, segmented recovery scan.
	store.Register(store.Provider{Name: "mdls", New: New})
}
