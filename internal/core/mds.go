package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"cofs/internal/lock"
	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/reshard"
	"cofs/internal/rpc"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// This file implements the sharded metadata service plane: the paper's
// future-work direction of distributing the metadata server itself
// (section V). An MDSCluster runs N independent metadata shards, each a
// *Service on its own simulated host with its own disk and Mnesia-style
// tables. Clients route every operation to a coordinator shard chosen by
// a deterministic shard map; operations whose rows span shards run an
// explicit two-phase protocol over simulated shard-to-shard RPCs (see
// twophase.go), so the virtual-time model keeps charging realistic
// latency for the distribution the single-service prototype avoided.
//
// The shard map is epoch-versioned (internal/reshard, docs/
// resharding.md): a small coordinator owns the authoritative version,
// MDSCluster.Reshard migrates rows to a new shard count while the plane
// keeps serving, and clients route by the (possibly stale) version
// their session last fetched. A shard that no longer owns a request's
// routing row answers ErrWrongEpoch; the routing layer below refetches
// the map and retries. With Reshard never called the current version is
// the deploy-time strided map forever, every session shares its
// pointer, and routing is bit-identical to a static map.

// ShardMap is the deterministic placement function of the metadata
// plane. Inode rows (underlying paths included) live on the shard
// derived from the inode id; dentries live on the shard of their parent
// directory, so Lookup and Readdir are always coordinated by a single
// shard.
//
// Placement is strided: shard s owns every id with (id-1) mod N == s,
// and each shard allocates ids from its own stride. New regular files
// and symlinks draw their id from the parent directory's shard, so a
// create commits on one shard; new directories draw theirs from the
// shard hashed from (parent, name), which spreads independent directory
// subtrees — and the load of everything later created inside them —
// across the whole plane.
type ShardMap struct {
	// Shards is the shard count N. 0 and 1 both mean "unsharded".
	Shards int
}

// Of returns the shard owning an inode id. The same id maps to the same
// shard on every run and across restarts with an unchanged shard count.
func (m ShardMap) Of(ino vfs.Ino) int {
	return reshard.Owner(uint64(ino), m.Shards)
}

// DirTarget returns the shard a new directory created as (parent, name)
// allocates its inode from. Hashing the birth name (rather than
// inheriting the parent's shard) is what keeps the map balanced: without
// it, every object would transitively collapse onto the root's shard.
func (m ShardMap) DirTarget(parent vfs.Ino, name string) int {
	if m.Shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(parent) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	return int(mix64(h.Sum64()) % uint64(m.Shards))
}

// ErrWrongEpoch is the redirect a shard answers when the client's shard
// map raced a live migration: the request reached a shard that no
// longer (or does not yet) own its routing row. The routing layer
// refetches the current map version and retries; the error never
// escapes to the VFS surface.
var ErrWrongEpoch = errors.New("cofs: shard map epoch out of date")

// planeCounters is the plane's counter block. The plane owns it, not the
// shards, channels and lock table that count into it: those come and go
// (a shrink drops shards and their channels, a reshard dials new ones),
// each holding a pointer into the block or reaching it through its
// cluster, so their counts stay behind with nothing to fold.
// Standby.Promote hands the demoted plane's block to the promoted one in
// a single assignment.
type planeCounters struct {
	// svc counts service requests and lease recalls, plane-wide.
	svc ServiceStats
	// peer is shared by the shard-to-shard channels and the reshard
	// coordinator's migration channels.
	peer  rpc.ConnStats
	locks lock.RowLockStats
	// reshard counts the resharding activity (mds.reshard-* counters).
	reshard reshard.Stats
	// standbyReads counts reads the read-offload standby served;
	// standbyFallbacks counts those its cursor could not prove fresh,
	// answered with a redirect the client pays for by retrying at the
	// primary (mds.standby-reads / mds.standby-fallbacks).
	standbyReads     int64
	standbyFallbacks int64
}

// MDSCluster is the sharded COFS metadata service plane. It exposes the
// same operation surface the single Service used to, routing each call
// to its coordinator shard; a deployment with one shard is behaviourally
// and cost-identical to the paper's prototype.
type MDSCluster struct {
	// Maps owns the epoch-versioned shard map (internal/reshard). The
	// current version is the authoritative ownership function; sessions
	// route by the version they last fetched.
	Maps *reshard.Coordinator
	cfg  params.COFSParams
	// full keeps the whole testbed configuration: Reshard builds new
	// shards (disk, database, service) from it.
	full   params.Config
	net    *netsim.Net
	shards []*Service
	// lockShards freezes the deploy-time shard count for the canonical
	// row-lock order (lock.RowKey.Shard): the ordering component must
	// name the same shard for the same row at every epoch, or two
	// transactions spanning a migration would sort the same rows
	// differently and the deadlock-freedom argument would fall. It is
	// an ordering namespace only — actual ownership lives in Maps.
	lockShards int
	// sessions tracks every client connection: growing the plane must
	// dial each session's channels to the new shards before any request
	// can be routed at them.
	sessions []*Session
	// rowLocks is the plane's ordered row-lock table: cross-shard
	// mutations hold per-inode/per-dentry locks across their whole
	// validate→commit span (txnlock.go, docs/transactions.md). Nil on
	// unsharded planes — a single shard commits every mutation in one
	// serialized transaction — and on unlocked planes. Growing an
	// unsharded plane creates it (Reshard).
	rowLocks *lock.RowLocks
	// unlocked reverts the plane to the unlocked validate→commit
	// protocol, and exclusiveLocks makes its row-lock table
	// exclusive-only. They are the reference arms of the race replays
	// and the overlap tests, set only through the test seams
	// (export_test.go); an unlocked plane refuses to reshard.
	unlocked, exclusiveLocks bool
	// txnFree recycles rowTxn footprints (struct plus req buffer): every
	// sharded mutation opens one, and a storm opens millions
	// (txnlock.go).
	txnFree []*rowTxn
	// reshardHost is the coordinator's own small host, created lazily at
	// the first Reshard, with one channel per shard for migration
	// traffic.
	reshardHost  *netsim.Host
	reshardConns []*rpc.Conn
	// ctr is the plane's counter block.
	ctr planeCounters
	// resharding is Reshard's re-entry latch. The coordinator's ErrBusy
	// only triggers at Begin, which runs after the plane has already
	// been grown and its allocators re-pointed; the latch is taken
	// before the first mutation, so a Reshard losing a race changes
	// nothing (the simulation is cooperative: there is no yield between
	// reading and setting it).
	resharding bool
	// hostPrefix names hosts growTo provisions, matching the
	// AddServiceHosts convention of the plane's deploy ("cofs-mds" for
	// primaries, "cofs-mds-standby" for standby planes).
	hostPrefix string
	// standbys are the hot-standby planes attached to this primary
	// (replication.go): a reshard grows and retires them in lockstep so
	// the standby shape always tracks the current epoch.
	standbys []*Standby
	// onReshardStep/reshardSeq drive the crash-injection step hook
	// (OnReshardStep); recovering suppresses it while recoverReshard
	// replays an interrupted migration.
	onReshardStep func(seq int, at ReshardPoint) bool
	reshardSeq    int
	recovering    bool
	// obs is the optional tracing/metrics plane (obs.go). Nil by
	// default; every hook nil-checks it, so a plane that never enables
	// observability pays nothing.
	obs *obsPlane
}

// NewMDSCluster creates one metadata shard per host. The hosts must be
// on the deployment's network; each shard gets a freshly attached local
// disk named after its host, plus an RPC channel to every peer shard
// for the two-phase protocol traffic.
func NewMDSCluster(net *netsim.Net, hosts []*netsim.Host, cfg params.Config) *MDSCluster {
	c := &MDSCluster{
		Maps:       reshard.NewCoordinator(len(hosts)),
		cfg:        cfg.COFS,
		full:       cfg,
		net:        net,
		lockShards: len(hosts),
		hostPrefix: "cofs-mds",
	}
	if c.lockShards < 1 {
		c.lockShards = 1
	}
	for i, h := range hosts {
		c.shards = append(c.shards, newShard(net, h, cfg, c, i))
	}
	c.ensureRowLocks()
	c.dialPeers()
	return c
}

// ensureRowLocks creates the plane's row-lock table, counting into the
// plane's block, once the plane has more than one shard (unless the
// plane runs unlocked).
func (c *MDSCluster) ensureRowLocks() {
	if len(c.shards) > 1 && c.rowLocks == nil && !c.unlocked {
		c.rowLocks = lock.NewRowLocks(c.net.Env(), &c.ctr.locks)
		c.rowLocks.ExclusiveOnly = c.exclusiveLocks
		c.wireLockObs()
	}
}

// dialPeers completes the shard-to-shard channel mesh, every channel
// counting into the plane's block.
func (c *MDSCluster) dialPeers() {
	for _, s := range c.shards {
		for len(s.peers) < len(c.shards) {
			s.peers = append(s.peers, nil)
		}
		for j, t := range c.shards {
			if t != s && s.peers[j] == nil {
				s.peers[j] = rpc.Dial(c.net, s.host, t.host, c.cfg.RPCBatch, &c.ctr.peer)
			}
		}
	}
}

// Shards returns the shard services in shard-id order (tooling/tests).
// After a shrink the slice still includes the drained, empty shards;
// ServingShards reports the count the map actually routes over.
func (c *MDSCluster) Shards() []*Service { return c.shards }

// ServingShards is the shard count of the current map: the target
// count mid-migration, the settled count otherwise. It is what "how
// many shards does this plane have" means to an operator, and differs
// from len(Shards()) only after a shrink (drained services linger,
// empty and unrouted).
func (c *MDSCluster) ServingShards() int { return c.Maps.Current().Target() }

// Of returns the shard owning ino at the current epoch.
func (c *MDSCluster) Of(ino vfs.Ino) int { return c.Maps.Current().Of(uint64(ino)) }

// dirTarget returns the shard a new directory (parent, name) allocates
// from, by the current map's target count — during a migration new
// directories place straight into the post-migration layout, so nothing
// created mid-flight ever needs to move.
func (c *MDSCluster) dirTarget(parent vfs.Ino, name string) int {
	return ShardMap{Shards: c.Maps.Current().Target()}.DirTarget(parent, name)
}

// shard returns the shard owning ino at the current epoch.
func (c *MDSCluster) shard(ino vfs.Ino) *Service { return c.shards[c.Of(ino)] }

// ReshardStats returns the plane's resharding counters.
func (c *MDSCluster) ReshardStats() reshard.Stats { return c.ctr.reshard }

// readStandby returns the standby plane that offloads this primary's
// reads, nil when none was deployed with COFSParams.StandbyReads. The
// pointer is returned even while serving is paused (mid-reshard):
// dialing decisions key on its existence, the per-read gate re-checks
// paused on the standby host (standby.go).
func (c *MDSCluster) readStandby() *Standby {
	for _, sb := range c.standbys {
		if sb.serveReads {
			return sb
		}
	}
	return nil
}

// StandbyReadStats returns the plane's standby-served read and
// fallback counters.
func (c *MDSCluster) StandbyReadStats() (reads, fallbacks int64) {
	return c.ctr.standbyReads, c.ctr.standbyFallbacks
}

// StoreName reports which store backend the plane's shards deploy
// (tools print it in their counters header).
func (c *MDSCluster) StoreName() string { return c.shards[0].DB.EngineName() }

// ---- routed operations (the client-facing surface used by FS) ----
//
// Every operation travels the calling session's RPC channel to its
// coordinator shard (see internal/rpc and session.go): the transport
// charges the wire and dispatch costs, the shard executes the operation
// body and manages the session's cache leases. The shard is chosen by
// the session's map version; when that version raced a migration the
// shard redirects (ErrWrongEpoch) and routed refetches and retries —
// the misrouted round trip is the price of the race, one extra hop.

// routed runs op against the shard the session's map version assigns
// ino, refetching the map and retrying on a redirect. op returns the
// operation's error so routed can spot the redirect; results travel in
// the caller's closure. A session whose map version predates a shrink's
// retirement can name a shard that no longer exists — its channel was
// dropped with the shard — which is the same race as a redirect, paid
// the same way: refetch and re-route.
func (c *MDSCluster) routed(p *sim.Proc, sess *Session, ino vfs.Ino, op func(s *Service) error) {
	for {
		si := sess.view.Of(uint64(ino))
		if si >= len(c.shards) || si >= len(sess.conns) {
			sess.refetchMap(p, c)
			continue
		}
		if op(c.shards[si]) != ErrWrongEpoch {
			return
		}
		sess.refetchMap(p, c)
	}
}

// Lookup resolves (parent, name); coordinated by the parent's shard —
// or served by its standby when one offloads reads and can prove the
// answer fresh (standby.go).
func (c *MDSCluster) Lookup(p *sim.Proc, sess *Session, parent vfs.Ino, name string) (attr vfs.Attr, err error) {
	ob := c.obsBegin(p, sess, "op.lookup", parent)
	defer c.obsEnd(p, ob)
	if sb := c.readStandby(); sb != nil {
		if attr, err, ok := sb.lookup(p, sess, parent, name); ok {
			return attr, err
		}
	}
	c.routed(p, sess, parent, func(s *Service) error {
		attr, err = s.Lookup(p, sess, parent, name)
		return err
	})
	return attr, err
}

// Getattr returns the attributes of id from its owning shard, or from
// the shard's standby when the replication cursor proves them fresh.
func (c *MDSCluster) Getattr(p *sim.Proc, sess *Session, id vfs.Ino) (attr vfs.Attr, err error) {
	ob := c.obsBegin(p, sess, "op.getattr", id)
	defer c.obsEnd(p, ob)
	if sb := c.readStandby(); sb != nil {
		if attr, err, ok := sb.getattr(p, sess, id); ok {
			return attr, err
		}
	}
	c.routed(p, sess, id, func(s *Service) error {
		attr, err = s.Getattr(p, sess, id)
		return err
	})
	return attr, err
}

// Setattr updates attributes of id on its owning shard.
func (c *MDSCluster) Setattr(p *sim.Proc, sess *Session, ctx vfs.Ctx, id vfs.Ino, set vfs.SetAttr) (attr vfs.Attr, upath string, err error) {
	ob := c.obsBegin(p, sess, "op.setattr", id)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, id, func(s *Service) error {
		attr, upath, err = s.Setattr(p, sess, ctx, id, set)
		return err
	})
	return attr, upath, err
}

// Create allocates a new object under parent; coordinated by the
// parent's shard (which owns the new dentry).
func (c *MDSCluster) Create(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, t vfs.FileType, mode uint32, bucket, target string) (attr vfs.Attr, upath string, err error) {
	ob := c.obsBegin(p, sess, "op.create", parent)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, parent, func(s *Service) error {
		attr, upath, err = s.Create(p, sess, ctx, parent, name, t, mode, bucket, target)
		return err
	})
	return attr, upath, err
}

// Readlink returns a symlink's target from its owning shard.
func (c *MDSCluster) Readlink(p *sim.Proc, sess *Session, id vfs.Ino) (tgt string, err error) {
	ob := c.obsBegin(p, sess, "op.readlink", id)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, id, func(s *Service) error {
		tgt, err = s.Readlink(p, sess, id)
		return err
	})
	return tgt, err
}

// OpenInfo returns attributes and underlying path of a regular file.
func (c *MDSCluster) OpenInfo(p *sim.Proc, sess *Session, id vfs.Ino) (attr vfs.Attr, upath string, err error) {
	ob := c.obsBegin(p, sess, "op.open", id)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, id, func(s *Service) error {
		attr, upath, err = s.OpenInfo(p, sess, id)
		return err
	})
	return attr, upath, err
}

// Remove unlinks (parent, name); coordinated by the parent's shard.
func (c *MDSCluster) Remove(p *sim.Proc, sess *Session, ctx vfs.Ctx, parent vfs.Ino, name string, rmdir bool) (upath string, id vfs.Ino, err error) {
	ob := c.obsBegin(p, sess, "op.remove", parent)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, parent, func(s *Service) error {
		upath, id, err = s.Remove(p, sess, ctx, parent, name, rmdir)
		return err
	})
	return upath, id, err
}

// Rename moves (srcDir, srcName) to (dstDir, dstName); coordinated by
// the source directory's shard.
func (c *MDSCluster) Rename(p *sim.Proc, sess *Session, ctx vfs.Ctx, srcDir vfs.Ino, srcName string, dstDir vfs.Ino, dstName string) (upath string, id vfs.Ino, err error) {
	ob := c.obsBegin(p, sess, "op.rename", srcDir)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, srcDir, func(s *Service) error {
		upath, id, err = s.Rename(p, sess, ctx, srcDir, srcName, dstDir, dstName)
		return err
	})
	return upath, id, err
}

// Link adds a hard link to id at (parent, name); coordinated by the
// parent's shard.
func (c *MDSCluster) Link(p *sim.Proc, sess *Session, ctx vfs.Ctx, id vfs.Ino, parent vfs.Ino, name string) (attr vfs.Attr, err error) {
	ob := c.obsBegin(p, sess, "op.link", parent)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, parent, func(s *Service) error {
		attr, err = s.Link(p, sess, ctx, id, parent, name)
		return err
	})
	return attr, err
}

// ReaddirPlus lists dir with attributes; coordinated by dir's shard,
// or served whole from its standby when every row of the listing is
// provably covered by the replication cursor.
func (c *MDSCluster) ReaddirPlus(p *sim.Proc, sess *Session, ctx vfs.Ctx, dir vfs.Ino) (ents []vfs.DirEntry, attrs []vfs.Attr, err error) {
	ob := c.obsBegin(p, sess, "op.readdir", dir)
	defer c.obsEnd(p, ob)
	if sb := c.readStandby(); sb != nil {
		if ents, attrs, err, ok := sb.readdirPlus(p, sess, ctx, dir); ok {
			return ents, attrs, err
		}
	}
	c.routed(p, sess, dir, func(s *Service) error {
		ents, attrs, err = s.ReaddirPlus(p, sess, ctx, dir)
		return err
	})
	return ents, attrs, err
}

// Readdir lists dir (names and types only).
func (c *MDSCluster) Readdir(p *sim.Proc, sess *Session, ctx vfs.Ctx, dir vfs.Ino) ([]vfs.DirEntry, error) {
	ents, _, err := c.ReaddirPlus(p, sess, ctx, dir)
	return ents, err
}

// WriteBack records a writer's size/mtime at close on id's shard.
func (c *MDSCluster) WriteBack(p *sim.Proc, sess *Session, id vfs.Ino, size int64, mtime time.Duration) (err error) {
	ob := c.obsBegin(p, sess, "op.writeback", id)
	defer c.obsEnd(p, ob)
	c.routed(p, sess, id, func(s *Service) error {
		err = s.WriteBack(p, sess, id, size, mtime)
		return err
	})
	return err
}

// CountObjects returns (files, dirs) aggregated over every shard, one
// RPC per shard.
func (c *MDSCluster) CountObjects(p *sim.Proc, sess *Session) (int64, int64) {
	var files, dirs int64
	for _, s := range c.shards {
		f, d := s.CountObjects(p, sess)
		files += f
		dirs += d
	}
	return files, dirs
}

// Mapping returns the underlying path of a regular file from its inode
// row, outside simulated time (tooling and tests; clients learn paths
// from Create, OpenInfo and Setattr replies).
func (c *MDSCluster) Mapping(id vfs.Ino) (string, bool) {
	row, ok := c.shard(id).inodes.Peek(id)
	return row.UPath, ok && row.UPath != ""
}

// EachMapping visits every (file id, underlying path) pair, shard by
// shard in deterministic order (tooling and tests).
func (c *MDSCluster) EachMapping(fn func(id vfs.Ino, upath string)) {
	for _, s := range c.shards {
		s.inodes.Each(func(id vfs.Ino, row inodeRow) {
			if row.UPath != "" {
				fn(id, row.UPath)
			}
		})
	}
}

// ---- whole-plane lifecycle (crash, recovery, tooling aggregates) ----

// Crash crashes every shard's database (tables lost, flushed WAL kept).
func (c *MDSCluster) Crash() {
	for _, s := range c.shards {
		s.DB.Crash()
	}
}

// Recover replays every shard's flushed WAL. When the crash caught a
// migration mid-flight, the coordinator's epoch log still names every
// committed move, and the WAL-handoff protocol guarantees a durable
// copy of every group at the shard the log assigns it; recovery
// reconciles the replayed leftovers of half-applied batches and resumes
// the migration to completion (recoverReshard), so Crash/Recover is
// well-defined at any instant of a grow or shrink.
func (c *MDSCluster) Recover(p *sim.Proc) {
	for _, s := range c.shards {
		s.DB.Recover(p)
	}
	if c.Maps.Current().Migrating() {
		c.recoverReshard(p)
	}
}

// Checkpoint dumps every shard's tables and truncates its WAL.
func (c *MDSCluster) Checkpoint(p *sim.Proc) {
	for _, s := range c.shards {
		s.DB.Checkpoint(p)
	}
}

// AdoptIDCounter recomputes every shard's id allocator from its tables
// (after recovery or standby promotion).
func (c *MDSCluster) AdoptIDCounter() {
	for _, s := range c.shards {
		s.AdoptIDCounter()
	}
}

// Stats returns the plane's service counters, summed over every shard
// it has run (retired shards included).
func (c *MDSCluster) Stats() ServiceStats { return c.ctr.svc }

// LockStats returns the plane's row-lock counters: locks taken, grants
// taken Shared, in-place Shared→Exclusive upgrades, acquisitions that
// had to wait, and the virtual time spent waiting (all zero on a plane
// that never ran the row-lock layer).
func (c *MDSCluster) LockStats() lock.RowLockStats { return c.ctr.locks }

// PeerTransportStats returns the plane's shard-to-shard channel
// counters of the two-phase protocol, including the migration channels
// of any reshard.
func (c *MDSCluster) PeerTransportStats() rpc.ConnStats { return c.ctr.peer }

// WALLen reports the plane's owned log length (cofsctl): each shard's
// WAL net of migration bookkeeping, so a handed-off record counts
// exactly once at every instant of a reshard — staged imports belong to
// the source until their epoch installs, then to the target and no
// longer to the source (mdb.OwnedWALLen). Identical to the raw sum on
// a plane that never resharded.
func (c *MDSCluster) WALLen() int {
	n := 0
	for _, s := range c.shards {
		n += s.DB.OwnedWALLen()
	}
	return n
}

// Commits reports total durable commits across shards (cofsctl).
func (c *MDSCluster) Commits() int64 {
	var n int64
	for _, s := range c.shards {
		n += s.DB.Commits
	}
	return n
}

// ShardCounts returns the number of inode rows per shard (tooling and
// the balance property tests).
func (c *MDSCluster) ShardCounts() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.inodes.Len()
	}
	return out
}

// CheckInvariants validates referential integrity of the whole plane:
// every row lives on the shard the map assigns it, every dentry points
// at a live inode (wherever it lives), dentry types mirror inode types,
// nlink matches the cluster-wide dentry references for non-directories,
// and every regular file's row carries its underlying path. Tests
// call it after workloads, at drained instants (mid-migration a batch's
// rows are legitimately in flight between shards).
func (c *MDSCluster) CheckInvariants() error {
	type loc struct {
		row   inodeRow
		shard int
	}
	inodes := make(map[vfs.Ino]loc)
	var err error
	for si, s := range c.shards {
		si, s := si, s
		s.inodes.Each(func(id vfs.Ino, row inodeRow) {
			if c.Of(id) != si {
				err = fmt.Errorf("core: inode %d on shard %d, map says %d", id, si, c.Of(id))
			}
			if row.ID != id {
				err = fmt.Errorf("core: inode row %d disagrees with its key %d", row.ID, id)
			}
			inodes[id] = loc{row: row, shard: si}
		})
	}
	if err != nil {
		return err
	}
	refs := make(map[vfs.Ino]int)
	dirRefs := make(map[vfs.Ino]int) // parent -> child-directory count
	for si, s := range c.shards {
		si := si
		s.dentries.Each(func(k dentryKey, de dentryRow) {
			if de.Parent != k.Parent || de.Name != k.Name {
				err = fmt.Errorf("core: dentry row %v disagrees with its key %v", de, k)
				return
			}
			if c.Of(k.Parent) != si {
				err = fmt.Errorf("core: dentry %d/%s on shard %d, map says %d", k.Parent, k.Name, si, c.Of(k.Parent))
				return
			}
			l, ok := inodes[de.Child]
			if !ok {
				err = fmt.Errorf("core: dentry %v/%s points at missing inode %d", k.Parent, k.Name, de.Child)
				return
			}
			if l.row.Type != de.Type {
				err = fmt.Errorf("core: dentry %v/%s type %v disagrees with inode type %v", k.Parent, k.Name, de.Type, l.row.Type)
				return
			}
			if l.row.Type != vfs.TypeDir {
				refs[de.Child]++
			} else {
				dirRefs[k.Parent]++
			}
		})
	}
	if err != nil {
		return err
	}
	ids := make([]vfs.Ino, 0, len(inodes))
	for id := range inodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := inodes[id]
		if l.row.Type == vfs.TypeDir {
			// A directory's nlink is itself + "." plus one ".." per
			// child directory.
			if want := 2 + dirRefs[id]; l.row.Nlink != want {
				return fmt.Errorf("core: directory %d nlink=%d, want %d (2 + %d subdirs)", id, l.row.Nlink, want, dirRefs[id])
			}
			continue
		}
		if refs[id] != l.row.Nlink {
			return fmt.Errorf("core: inode %d nlink=%d, %d dentries", id, l.row.Nlink, refs[id])
		}
		if (l.row.Type == vfs.TypeRegular) != (l.row.UPath != "") {
			return fmt.Errorf("core: inode %d (type %v) has underlying path %q", id, l.row.Type, l.row.UPath)
		}
	}
	return nil
}
