package mdls

import (
	"math"
	"testing"
	"time"

	"cofs/internal/disk"
	"cofs/internal/mdb"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/store"
)

const opTime = 10 * time.Microsecond

func newDB(env *sim.Env, dp params.DiskParams) (*mdb.DB, *Engine, *disk.Disk) {
	d := disk.New(env, "mdls", dp)
	db := New(env, d, store.Options{OpTime: opTime})
	return db, db.Engine().(*Engine), d
}

// TestCompactionStall grows the journal by one durable record per
// commit and checks that exactly one compaction fires, at the first
// length that reaches both CompactMinRecords and CompactFactor x live
// rows, and that a commit issued while it runs waits for the whole
// rewrite.
func TestCompactionStall(t *testing.T) {
	cases := []struct {
		name       string
		live, want int // rows kept live; journal length that compacts
	}{
		{"min-records-bound", 2, 64}, // 4 x 2 live rows < 64
		{"live-factor-bound", 32, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			db, e, _ := newDB(env, params.Default().Disk)
			e.CompactMinRecords = 64
			tbl := mdb.NewTable[int, int](db, "t", mdb.DiscCopies)
			writerDone, issuedDuring, waited := false, false, false
			env.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < tc.want; i++ {
					db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, tbl, i%tc.live, i) })
					if i < tc.want-1 && e.Compactions != 0 {
						t.Errorf("compacted at %d journal records, want %d", i+1, tc.want)
					}
				}
				writerDone = true
			})
			env.Spawn("stalled", func(p *sim.Proc) {
				// maybeCompact sets compacting and takes the uncontended
				// freeze before its first yield, so once this proc sees the
				// flag the rewrite holds the transaction lock. The dump (a
				// seek, a write and an fsync) spans many poll intervals.
				for !e.compacting {
					if writerDone {
						t.Error("no compaction started")
						return
					}
					p.Sleep(50 * time.Microsecond)
				}
				issuedDuring = e.Compactions == 0
				db.Transaction(p, func(tx *mdb.Tx) {
					waited = e.Compactions == 1
					mdb.Put(tx, tbl, 0, -1)
				})
			})
			env.MustRun()
			if e.Compactions != 1 {
				t.Fatalf("%d compactions, want exactly 1", e.Compactions)
			}
			if want := int64(tc.want - tc.live); e.CompactedRecords != want {
				t.Errorf("compaction dropped %d records, want %d", e.CompactedRecords, want)
			}
			if !issuedDuring || !waited {
				t.Errorf("commit issued mid-compaction (%v) ran before the rewrite finished (waited %v)", issuedDuring, waited)
			}
		})
	}
}

// TestCompactionSingleFlight has two committers cross the compaction
// threshold back to back: the second one's append queues behind the
// first's on the journal head, so it reaches maybeCompact while the
// first is compacting, and must not start a second rewrite.
func TestCompactionSingleFlight(t *testing.T) {
	env := sim.NewEnv(1)
	db, e, _ := newDB(env, params.Default().Disk)
	e.CompactMinRecords = 64
	tbl := mdb.NewTable[int, int](db, "t", mdb.DiscCopies)
	env.Spawn("fill", func(p *sim.Proc) {
		for i := 0; i < 62; i++ {
			db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, tbl, i%2, i) })
		}
		for c := 0; c < 2; c++ {
			env.Spawn("committer", func(p *sim.Proc) {
				db.Transaction(p, func(tx *mdb.Tx) { mdb.Put(tx, tbl, c, -c) })
			})
		}
	})
	env.MustRun()
	if e.Compactions != 1 {
		t.Fatalf("%d compactions, want exactly 1", e.Compactions)
	}
}

// TestSegmentedRecovery checks that RecoverScan reads the journal in
// 4096-record segments, each a seek away from the last: n records pay
// ceil(n/4096) positioning costs, not one, plus the per-record index
// rebuild. The disk transfers for free, so positioning is all it costs.
func TestSegmentedRecovery(t *testing.T) {
	dp := params.Default().Disk
	dp.TransferRate = math.Inf(1)
	for _, tc := range []struct{ records, segments int }{{1, 1}, {4096, 1}, {4097, 2}, {8193, 3}} {
		env := sim.NewEnv(1)
		db, _, d := newDB(env, dp)
		tbl := mdb.NewTable[int, int](db, "t", mdb.DiscCopies)
		var elapsed time.Duration
		var reads int64
		env.Spawn("t", func(p *sim.Proc) {
			db.Transaction(p, func(tx *mdb.Tx) {
				for i := 0; i < tc.records; i++ {
					mdb.Put(tx, tbl, i, i)
				}
			})
			db.Crash()
			reads, elapsed = d.Reads, p.Now()
			db.Recover(p)
			reads, elapsed = d.Reads-reads, p.Now()-elapsed
		})
		env.MustRun()
		want := time.Duration(tc.segments)*dp.AccessTime + time.Duration(tc.records)*opTime/4
		if reads != int64(tc.segments) || elapsed != want {
			t.Errorf("%d records: %d segment reads in %v, want %d in %v", tc.records, reads, elapsed, tc.segments, want)
		}
		if tbl.Len() != tc.records {
			t.Errorf("%d records: recovered %d rows", tc.records, tbl.Len())
		}
	}
}
