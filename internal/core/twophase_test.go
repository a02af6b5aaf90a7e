package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// These tests pin the lock-ordered cross-shard transaction layer
// (twophase.go, txnlock.go, docs/transactions.md) from both sides:
//
//   - The interleaving replays reproduce, deterministically, the
//     rename-vs-rename and rename-vs-remove races that the unlocked
//     validate→commit protocol loses (the ROADMAP open item PR 2's
//     concurrency storm found). Each replay sweeps the start offset of
//     the second mutation across the first one's protocol window; on
//     an unlocked plane (core.UnlockForTest) some offset
//     must corrupt the plane invariants, and with the lock layer on no
//     offset may — and the final namespace must be one of the two
//     serial outcomes.
//   - The cost baseline runs a single-process workload over every
//     cross-shard path with the lock layer on and off: virtual end
//     time and network message count must match exactly, pinning that
//     uncontended lock acquisition charges nothing.

// txnRig deploys an n-node COFS at the given shard count; mut, if
// non-nil, adjusts the configuration before deployment, and lockMode,
// if non-nil, selects a reference lock mode on the plane before any
// traffic (core.UnlockForTest or core.ExclusiveRowLocksForTest; nil
// keeps the default shared/exclusive table).
func txnRig(t *testing.T, seed int64, nodes, shards int, mut func(cfg *params.Config), lockMode func(*core.MDSCluster)) (*cluster.Testbed, *core.Deployment) {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.FUSE.EntryTimeout = time.Nanosecond
	if mut != nil {
		mut(&cfg)
	}
	tb := cluster.New(seed, nodes, cfg)
	d := core.Deploy(tb, nil)
	if lockMode != nil {
		lockMode(d.Service)
	}
	tb.Run()
	return tb, d
}

// exclusiveIf selects the exclusive-only table when excl is set.
func exclusiveIf(excl bool) func(*core.MDSCluster) {
	if excl {
		return core.ExclusiveRowLocksForTest
	}
	return nil
}

// syncWAL runs the shard WAL synchronously, so each create's durable
// commit lands inside its locked span.
func syncWAL(cfg *params.Config) { cfg.COFS.LogFlushInterval = 0 }

// raceOffsets is the sweep of start delays for the second mutation of
// each replay: 0 to 3ms in 150µs steps, densely covering the first
// mutation's validate→commit window (a cross-shard rename spends a few
// hundred µs to low ms between its validation reads and its last
// commit, depending on queueing).
func raceOffsets() []time.Duration {
	var out []time.Duration
	for d := time.Duration(0); d <= 3*time.Millisecond; d += 150 * time.Microsecond {
		out = append(out, d)
	}
	return out
}

// TestRenameRenameRaceInterleaving replays two concurrent renames of
// different sources onto the same destination name. Unlocked, both can
// validate the destination as absent and both install it — the second
// install silently overwrites the first, stranding a file with nlink=1
// and no dentry (the exact "inode N nlink=1, 0 dentries" failure from
// the ROADMAP open item). Lock-ordered, the destination dentry's lock
// serializes the two renames: the loser sees the winner's entry and
// replaces it properly.
func TestRenameRenameRaceInterleaving(t *testing.T) {
	type outcome struct {
		invErr   error
		zOK      bool // /c/z resolves
		srcsGone bool // /a/x and /b/y both ENOENT
		counters *stats.Counters
	}
	run := func(delta time.Duration, unlocked bool) outcome {
		var mode func(*core.MDSCluster)
		if unlocked {
			mode = core.UnlockForTest
		}
		tb, d := txnRig(t, 31, 2, 2, nil, mode)
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		step(tb, "setup", func(p *sim.Proc) {
			for _, dir := range []string{"/a", "/b", "/c"} {
				if err := d.Mounts[0].Mkdir(p, ctx0, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			for _, file := range []string{"/a/x", "/b/y"} {
				f, err := d.Mounts[0].Create(p, ctx0, file, 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
			}
		})
		tb.Env.Spawn("renameA", func(p *sim.Proc) {
			d.Mounts[0].Rename(p, ctx0, "/a/x", "/c/z")
		})
		tb.Env.SpawnAfter("renameB", delta, func(p *sim.Proc) {
			d.Mounts[1].Rename(p, ctx1, "/b/y", "/c/z")
		})
		tb.Run()
		var out outcome
		out.invErr = d.Service.CheckInvariants()
		step(tb, "verify", func(p *sim.Proc) {
			_, zErr := d.Mounts[0].Stat(p, ctx0, "/c/z")
			_, xErr := d.Mounts[0].Stat(p, ctx0, "/a/x")
			_, yErr := d.Mounts[0].Stat(p, ctx0, "/b/y")
			out.zOK = zErr == nil
			out.srcsGone = xErr == vfs.ErrNotExist && yErr == vfs.ErrNotExist
		})
		out.counters = d.Counters()
		return out
	}

	corrupted := 0
	for _, delta := range raceOffsets() {
		if run(delta, true).invErr != nil {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no offset corrupted the unlocked protocol: the replay no longer exercises the race")
	}

	var conflicts int64
	for _, delta := range raceOffsets() {
		out := run(delta, false)
		if out.invErr != nil {
			t.Fatalf("offset %v: lock-ordered protocol broke invariants: %v", delta, out.invErr)
		}
		// Either serial order moves both sources and leaves exactly one
		// of the two files at the destination.
		if !out.zOK || !out.srcsGone {
			t.Fatalf("offset %v: final namespace is not a serial outcome: z=%v srcsGone=%v",
				delta, out.zOK, out.srcsGone)
		}
		conflicts += out.counters.Get("mds.lock-conflicts")
		if out.counters.Get("mds.lock-acquires") == 0 {
			t.Fatalf("offset %v: no row locks were taken", delta)
		}
	}
	if conflicts == 0 {
		t.Fatal("no offset made the renames contend a row lock: the replay no longer overlaps them")
	}
}

// TestRenameRemoveRaceInterleaving replays a rename replacing a
// hard-linked destination against a concurrent remove of that same
// destination name. Unlocked, both can observe the old entry and both
// drop one of the target's links — two decrements for one removed
// dentry — leaving the surviving name pointing at a reclaimed inode.
// Lock-ordered, the remove and the rename serialize on the destination
// dentry and the target's inode row, so exactly one link dies and the
// other name keeps a live inode with nlink=1 in either serial order.
func TestRenameRemoveRaceInterleaving(t *testing.T) {
	run := func(delta time.Duration, unlocked bool) (nlink int, statErr error, invErr error) {
		var mode func(*core.MDSCluster)
		if unlocked {
			mode = core.UnlockForTest
		}
		tb, d := txnRig(t, 33, 2, 2, nil, mode)
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		step(tb, "setup", func(p *sim.Proc) {
			for _, dir := range []string{"/a", "/c", "/d"} {
				if err := d.Mounts[0].Mkdir(p, ctx0, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			for _, file := range []string{"/a/x", "/c/z"} {
				f, err := d.Mounts[0].Create(p, ctx0, file, 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
			}
			// The replaced target is reachable under a second name, so a
			// double unlink of it strands /d/w on a dead inode.
			if err := d.Mounts[0].Link(p, ctx0, "/c/z", "/d/w"); err != nil {
				t.Fatal(err)
			}
		})
		tb.Env.Spawn("rename", func(p *sim.Proc) {
			d.Mounts[0].Rename(p, ctx0, "/a/x", "/c/z")
		})
		tb.Env.SpawnAfter("remove", delta, func(p *sim.Proc) {
			d.Mounts[1].Unlink(p, ctx1, "/c/z")
		})
		tb.Run()
		invErr = d.Service.CheckInvariants()
		step(tb, "verify", func(p *sim.Proc) {
			attr, err := d.Mounts[0].Stat(p, ctx0, "/d/w")
			nlink, statErr = attr.Nlink, err
		})
		return nlink, statErr, invErr
	}

	corrupted := 0
	for _, delta := range raceOffsets() {
		_, _, invErr := run(delta, true)
		if invErr != nil {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no offset corrupted the unlocked protocol: the replay no longer exercises the race")
	}

	for _, delta := range raceOffsets() {
		nlink, statErr, invErr := run(delta, false)
		if invErr != nil {
			t.Fatalf("offset %v: lock-ordered protocol broke invariants: %v", delta, invErr)
		}
		if statErr != nil || nlink != 1 {
			t.Fatalf("offset %v: surviving hard link wrong: nlink=%d, %v", delta, nlink, statErr)
		}
	}
}

// TestCreateCreateOverlapInterleaving replays two concurrent creates
// of different names in one shared directory, offset-swept like the
// rename replays above. Both creates coordinate at the parent's shard
// and both footprints meet on the parent directory's inode row — with
// exclusive-only locks (core.ExclusiveRowLocksForTest) the second
// create must park there for the overlapping offsets, so its
// validate→commit span strictly follows the first's; with the
// shared/exclusive table the parent row is Shared and the two spans
// overlap in virtual time: no offset parks, and the later create
// finishes strictly earlier wherever the exclusive table serialized.
// The shard WAL runs synchronously here (LogFlushInterval=0), so each
// create's durable commit lands inside its locked span — the
// validate→commit window is commit-wide, the regime where group-commit
// overlap matters. This pins the recovered overlap itself (the ROADMAP
// open item), not just the benchmark number;
// BenchmarkGroupCommitOverlap measures the same effect at storm scale.
func TestCreateCreateOverlapInterleaving(t *testing.T) {
	type outcome struct {
		done              time.Duration // the later create's completion instant
		conflicts, shared int64
		invErr            error
		bothOK            bool
	}
	run := func(delta time.Duration, excl bool) outcome {
		tb, d := txnRig(t, 37, 2, 2, syncWAL, exclusiveIf(excl))
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		step(tb, "setup", func(p *sim.Proc) {
			if err := d.Mounts[0].Mkdir(p, ctx0, "/shared", 0777); err != nil {
				t.Fatal(err)
			}
		})
		// The overlap is measured on the creates' own completion
		// instants (the drained Env.Now() includes unrelated trailing
		// events).
		var out outcome
		create := func(m int, ctx vfs.Ctx, path string) func(p *sim.Proc) {
			return func(p *sim.Proc) {
				f, err := d.Mounts[m].Create(p, ctx, path, 0644)
				if err == nil {
					f.Close(p)
				}
				if p.Now() > out.done {
					out.done = p.Now()
				}
			}
		}
		tb.Env.Spawn("createA", create(0, ctx0, "/shared/a"))
		tb.Env.SpawnAfter("createB", delta, create(1, ctx1, "/shared/b"))
		tb.Run()
		out.invErr = d.Service.CheckInvariants()
		step(tb, "verify", func(p *sim.Proc) {
			_, aErr := d.Mounts[0].Stat(p, ctx0, "/shared/a")
			_, bErr := d.Mounts[0].Stat(p, ctx0, "/shared/b")
			out.bothOK = aErr == nil && bErr == nil
		})
		c := d.Counters()
		out.conflicts = c.Get("mds.lock-conflicts")
		out.shared = c.Get("mds.lock-shared")
		return out
	}

	serialized := 0
	for _, delta := range raceOffsets() {
		e := run(delta, true)
		s := run(delta, false)
		for name, o := range map[string]outcome{"exclusive": e, "shared-exclusive": s} {
			if o.invErr != nil {
				t.Fatalf("offset %v: %s run broke invariants: %v", delta, name, o.invErr)
			}
			if !o.bothOK {
				t.Fatalf("offset %v: %s run lost a create", delta, name)
			}
		}
		if s.conflicts != 0 {
			t.Fatalf("offset %v: shared/exclusive table parked a create (%d conflicts): same-directory creates no longer overlap", delta, s.conflicts)
		}
		if s.shared == 0 {
			t.Fatalf("offset %v: no shared row locks were taken", delta)
		}
		if e.conflicts > 0 {
			serialized++
			if s.done >= e.done {
				t.Fatalf("offset %v: overlap not recovered: shared/exclusive finished at %v, exclusive-only at %v",
					delta, s.done, e.done)
			}
		} else if s.done != e.done {
			// With no contention the two tables must be bit-identical.
			t.Fatalf("offset %v: uncontended runs diverge: shared/exclusive %v, exclusive-only %v", delta, s.done, e.done)
		}
	}
	if serialized == 0 {
		t.Fatal("no offset made the exclusive-only table serialize the creates: the replay no longer overlaps them")
	}
}

// TestCreateStormGroupCommitBatching pins the "group commit" in the
// recovered overlap directly, at the flush level: with the shard's WAL
// in synchronous mode (LogFlushInterval=0, every durable transaction
// forces the journal), four clients creating in one directory at small
// offsets ride shared journal flushes only if their validate→commit
// spans actually overlap. Exclusive-only, the parent row serializes
// the creates and every commit flushes alone; shared/exclusive, the
// commits arrive while a flush is in flight and batch into fewer,
// shared flushes — strictly fewer syncs and a strictly earlier finish.
func TestCreateStormGroupCommitBatching(t *testing.T) {
	run := func(excl bool) (syncs int64, now time.Duration, conflicts int64) {
		tb, d := txnRig(t, 41, 4, 2, syncWAL, exclusiveIf(excl))
		ctx0 := cluster.Ctx(0, 1)
		step(tb, "setup", func(p *sim.Proc) {
			if err := d.Mounts[0].Mkdir(p, ctx0, "/shared", 0777); err != nil {
				t.Fatal(err)
			}
		})
		var base int64
		for _, s := range d.Service.Shards() {
			base += s.Disk.Syncs
		}
		for i := 0; i < 4; i++ {
			i := i
			tb.Env.SpawnAfter(fmt.Sprintf("create%d", i), time.Duration(i)*50*time.Microsecond, func(p *sim.Proc) {
				ctx := cluster.Ctx(i, 1)
				f, err := d.Mounts[i].Create(p, ctx, fmt.Sprintf("/shared/f%d", i), 0644)
				if err != nil {
					t.Errorf("create %d: %v", i, err)
					return
				}
				f.Close(p)
			})
		}
		tb.Run()
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Service.Shards() {
			syncs += s.Disk.Syncs
		}
		return syncs - base, tb.Env.Now(), d.Counters().Get("mds.lock-conflicts")
	}
	exclSyncs, exclNow, exclConflicts := run(true)
	sxSyncs, sxNow, sxConflicts := run(false)
	if exclConflicts == 0 {
		t.Fatal("exclusive-only storm never contended the parent row: the storm no longer overlaps")
	}
	if sxConflicts != 0 {
		t.Fatalf("shared/exclusive storm parked %d times on same-directory creates", sxConflicts)
	}
	if sxSyncs >= exclSyncs {
		t.Fatalf("group commit did not batch: %d flushes shared/exclusive vs %d exclusive-only", sxSyncs, exclSyncs)
	}
	if sxNow >= exclNow {
		t.Fatalf("storm not faster with shared locks: %v vs %v", sxNow, exclNow)
	}
}

// BenchmarkGroupCommitOverlap measures the group-commit overlap the
// shared/exclusive row-lock split recovers (docs/transactions.md): a
// same-directory create storm — 16 ranks (4 nodes x 4 procs) all
// creating and deleting distinct files in one shared virtual directory
// — at 1, 2 and 4 metadata shards, with the exclusive-only table
// (core.ExclusiveRowLocksForTest) versus the mode-aware default. Every
// create meets on the parent directory's inode row: exclusive-only
// serializes the whole validate→commit spans there, shared/exclusive
// overlaps them (the dentry rows written stay exclusive).
// docs/transactions.md records the figures. One shard has no lock
// table at all, so it runs only the default arm, as the baseline
// (TestTxnLocksUncontendedCostIdentical pins the uncontended
// equivalence at 2 and 4 shards).
func BenchmarkGroupCommitOverlap(b *testing.B) {
	run := func(seed int64, shards int, excl bool) float64 {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		tb := cluster.New(seed, 4, cfg)
		d := core.Deploy(tb, nil)
		if excl {
			core.ExclusiveRowLocksForTest(d.Service)
		}
		t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
		res := bench.Metarates(t, bench.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 4, FilesPerProc: 128,
			Dir: "/shared", Ops: []string{"create"},
		})
		return res.MeanMs("create")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, mode := range []string{"exclusive", "shared-exclusive"} {
			if shards == 1 && mode == "exclusive" {
				continue
			}
			b.Run(fmt.Sprintf("%s-%dshards", mode, shards), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = run(int64(i+1), shards, mode == "exclusive")
				}
				b.ReportMetric(ms, "vms/op")
			})
		}
	}
}

// TestTxnLocksUncontendedCostIdentical pins the cost contract of the
// lock layer, three ways: with no contention, acquiring and releasing
// row locks charges nothing — a single-process workload over every
// cross-shard mutation path must land on exactly the same virtual
// clock and move exactly the same number of network messages with the
// shared/exclusive table, with the exclusive-only table
// (core.ExclusiveRowLocksForTest), and with the layer off entirely
// (core.UnlockForTest). The three-way diff keeps the
// bit-identical-figures guarantee pinned for the mode split too, and
// the default arm is also held to absolute figures, so a drift that
// moves all three arms alike cannot pass either.
func TestTxnLocksUncontendedCostIdentical(t *testing.T) {
	for _, pin := range []struct {
		shards   int
		now      time.Duration
		msgs     int64
		acquires int64
	}{
		{2, 1421295190 * time.Nanosecond, 612, 67},
		{4, 1459657419 * time.Nanosecond, 656, 67},
	} {
		shards := pin.shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			run := func(lockMode func(*core.MDSCluster)) (time.Duration, int64, int64, int64) {
				tb, d := txnRig(t, 55, 2, shards, nil, lockMode)
				ctx := cluster.Ctx(0, 1)
				step(tb, "workload", func(p *sim.Proc) {
					m := d.Mounts[0]
					// Directory creates spread across shards by DirTarget:
					// some land remote (createRemoteDir), some local.
					for i := 0; i < 6; i++ {
						if err := m.MkdirAll(p, ctx, fmt.Sprintf("/t/d%d", i), 0777); err != nil {
							t.Fatal(err)
						}
						f, err := m.Create(p, ctx, fmt.Sprintf("/t/d%d/f", i), 0644)
						if err != nil {
							t.Fatal(err)
						}
						f.Close(p)
					}
					// Cross-directory (and cross-shard) links, renames —
					// plain and replacing — removes and rmdirs.
					if err := m.Link(p, ctx, "/t/d0/f", "/t/d1/g"); err != nil {
						t.Fatal(err)
					}
					if err := m.Rename(p, ctx, "/t/d2/f", "/t/d3/r"); err != nil {
						t.Fatal(err)
					}
					if err := m.Rename(p, ctx, "/t/d4/f", "/t/d3/f"); err != nil {
						t.Fatal(err)
					}
					if err := m.Unlink(p, ctx, "/t/d1/g"); err != nil {
						t.Fatal(err)
					}
					if err := m.Unlink(p, ctx, "/t/d5/f"); err != nil {
						t.Fatal(err)
					}
					if err := m.Rmdir(p, ctx, "/t/d5"); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Readdir(p, ctx, "/t"); err != nil {
						t.Fatal(err)
					}
				})
				c := d.Counters()
				return tb.Env.Now(), tb.Net.Messages, c.Get("mds.lock-acquires"), c.Get("mds.lock-conflicts")
			}
			sxNow, sxMsgs, sxAcquires, sxConflicts := run(nil)
			exclNow, exclMsgs, exclAcquires, exclConflicts := run(core.ExclusiveRowLocksForTest)
			offNow, offMsgs, _, _ := run(core.UnlockForTest)
			if sxNow != pin.now || sxMsgs != pin.msgs || sxAcquires != pin.acquires {
				t.Fatalf("uncontended workload drifted: (%v, %d msgs, %d lock acquires), pinned (%v, %d msgs, %d lock acquires)",
					sxNow, sxMsgs, sxAcquires, pin.now, pin.msgs, pin.acquires)
			}
			if sxAcquires == 0 || exclAcquires == 0 {
				t.Fatal("workload took no row locks: it no longer exercises the lock layer")
			}
			if sxConflicts != 0 || exclConflicts != 0 {
				t.Fatalf("single-process workload contended row locks (%d sx, %d excl): not an uncontended baseline",
					sxConflicts, exclConflicts)
			}
			if sxNow != exclNow || sxMsgs != exclMsgs {
				t.Fatalf("uncontended costs diverge: shared/exclusive (%v, %d msgs) vs exclusive-only (%v, %d msgs)",
					sxNow, sxMsgs, exclNow, exclMsgs)
			}
			if sxNow != offNow || sxMsgs != offMsgs {
				t.Fatalf("uncontended costs diverge: shared/exclusive (%v, %d msgs) vs locks off (%v, %d msgs)",
					sxNow, sxMsgs, offNow, offMsgs)
			}
			if sxAcquires != exclAcquires {
				t.Fatalf("the two lock modes acquired different footprints: %d vs %d rows", sxAcquires, exclAcquires)
			}
		})
	}
}
