// Package reshard implements the control plane of online metadata
// resharding: epoch-versioned shard maps, the deterministic migration
// plan between two strided placements, and the counters the operation
// surfaces. The mechanics of actually moving rows — locks, RPC copies,
// lease recalls — live in internal/core (the data plane this package
// versions); internal/core's MDSCluster.Reshard drives both.
//
// The model is the one every live hash-sharded store converges on
// (Redis cluster slots, HDFS balancer epochs): placement stays a pure
// function, but the function is versioned. A Map describes ownership at
// one epoch; a Coordinator owns the current version and installs a new
// one after every migrated batch. Clients route by a possibly-stale
// version and the serving side redirects them (ErrWrongEpoch in core)
// when they race a move, so no barrier ever stops the plane.
//
// Ownership at an epoch is decided by three pieces:
//
//   - Old and New, the strided shard counts the migration moves
//     between. When the map is settled (no migration in flight) they
//     are equal and the map is exactly core's deterministic ShardMap.
//   - SplitID, the largest id allocated before the migration began.
//     Ids above it are newborn: shards switch their allocation strides
//     to the New placement the moment the migration starts, so newborn
//     rows are born on the shard that will own them when it completes
//     and are never migrated.
//   - The moved log, an append-only record of (group id, epoch moved).
//     A group — an inode id, standing for the inode row (a regular
//     file's underlying path included) and the dentries of the
//     directory it names — at or below SplitID
//     is owned by its New shard from the epoch its batch committed and
//     by its Old shard before that.
//
// Map versions are immutable: the moved log is shared between versions
// but every entry is stamped with the epoch that installed it, and a
// version only honours entries at or below its own epoch. A client
// holding epoch e therefore routes exactly as the plane did at e,
// however far the migration has advanced since.
package reshard

import (
	"errors"
	"fmt"
	"sort"
)

// Owner is the strided placement both endpoints of a migration use: the
// shard owning id among n, with 0 and 1 both meaning "unsharded". It
// mirrors core's ShardMap.Of, id-for-id.
func Owner(id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((id - 1) % uint64(n))
}

// movedLog is the append-only record of migrated groups, shared by
// every Map version of one migration: group id -> epoch at which the
// group's batch committed. Entries are never mutated or removed, which
// is what lets versions share it while staying immutable.
type movedLog struct {
	at map[uint64]int64
}

// Map is one epoch version of the shard map. The zero value is not
// useful; use Settled or a Coordinator.
type Map struct {
	// Epoch is the version number, strictly increasing across installs.
	Epoch int64
	// Old and New are the strided shard counts the migration moves
	// between; equal when settled.
	Old, New int
	// SplitID is the newborn boundary: ids above it are placed by New
	// unconditionally. 0 when settled.
	SplitID uint64
	// MovedCount is the number of groups moved as of this epoch (it
	// sizes the map-fetch response: a real implementation ships the
	// moved set as a bitmap over ids up to SplitID).
	MovedCount int

	moved *movedLog // nil when settled
}

// Settled returns the map of a plane with no migration in flight: pure
// strided placement over n shards.
func Settled(n int, epoch int64) *Map {
	if n < 1 {
		n = 1
	}
	return &Map{Epoch: epoch, Old: n, New: n}
}

// Migrating reports whether this version is mid-migration.
func (m *Map) Migrating() bool { return m.moved != nil }

// Target is the shard count the plane is heading for (equals the
// serving count when settled). New objects place by it: directory
// targets hash modulo Target, and allocation strides follow it, so
// nothing created during a migration ever needs to move.
func (m *Map) Target() int { return m.New }

// Moved reports whether group id's migration committed at or below this
// epoch. Always false on a settled map (the moved log is dropped at
// Finish). Mid-reshard recovery filters its replanned moves by it: a
// group the epoch log already committed is durably at its target and
// must not move twice.
func (m *Map) Moved(id uint64) bool {
	if m.moved == nil {
		return false
	}
	e, ok := m.moved.at[id]
	return ok && e <= m.Epoch
}

// Of returns the shard owning group id at this epoch.
func (m *Map) Of(id uint64) int {
	if m.moved == nil || id > m.SplitID {
		return Owner(id, m.New)
	}
	if e, ok := m.moved.at[id]; ok && e <= m.Epoch {
		return Owner(id, m.New)
	}
	return Owner(id, m.Old)
}

// Coordinator owns the authoritative shard-map version of one metadata
// plane. All methods run inside the simulation's cooperative scheduler;
// installing a version is a plain pointer swap (the map object is tiny
// — distribution cost is charged where clients fetch it).
type Coordinator struct {
	cur *Map
}

// NewCoordinator starts a coordinator with a settled map over n shards
// at epoch 0.
func NewCoordinator(n int) *Coordinator {
	return &Coordinator{cur: Settled(n, 0)}
}

// Current returns the authoritative map version.
func (c *Coordinator) Current() *Map { return c.cur }

// ErrBusy is returned when a migration is already in flight: epochs
// form a single total order, so reshards serialize.
var ErrBusy = errors.New("reshard: migration already in flight")

// Begin installs the first migration epoch: ownership still matches the
// old placement everywhere (nothing is in the moved log yet), but the
// target count and newborn boundary are published, so allocation and
// directory-target placement switch to the New placement at once.
func (c *Coordinator) Begin(newShards int, splitID uint64) (*Map, error) {
	if c.cur.Migrating() {
		return nil, ErrBusy
	}
	if newShards < 1 {
		return nil, fmt.Errorf("reshard: target shard count %d", newShards)
	}
	m := &Map{
		Epoch: c.cur.Epoch + 1,
		Old:   c.cur.New, New: newShards,
		SplitID: splitID,
		moved:   &movedLog{at: make(map[uint64]int64)},
	}
	c.cur = m
	return m, nil
}

// Commit installs the epoch that makes one migrated batch visible: the
// given groups are owned by their New shards from the returned version
// on. Panics if no migration is in flight or a group commits twice —
// both are planner bugs, not runtime conditions.
func (c *Coordinator) Commit(groups []uint64) *Map {
	if !c.cur.Migrating() {
		panic("reshard: Commit with no migration in flight")
	}
	next := &Map{
		Epoch: c.cur.Epoch + 1,
		Old:   c.cur.Old, New: c.cur.New,
		SplitID:    c.cur.SplitID,
		MovedCount: c.cur.MovedCount + len(groups),
		moved:      c.cur.moved,
	}
	for _, g := range groups {
		if _, dup := next.moved.at[g]; dup {
			panic(fmt.Sprintf("reshard: group %d moved twice", g))
		}
		next.moved.at[g] = next.Epoch
	}
	c.cur = next
	return next
}

// Finish settles the map at the target count: the moved log is dropped
// (every group at or below SplitID whose owner changed has moved, so
// pure strided placement over New is the truth everywhere).
func (c *Coordinator) Finish() *Map {
	if !c.cur.Migrating() {
		panic("reshard: Finish with no migration in flight")
	}
	c.cur = Settled(c.cur.New, c.cur.Epoch+1)
	return c.cur
}

// Move is one planned group migration.
type Move struct {
	Group    uint64
	From, To int
}

// PlanMoves returns, sorted by group id, the migrations taking the
// given live groups from the old to the new strided placement: exactly
// the groups at or below splitID whose owner changes. Ids above splitID
// are newborn (allocated after Begin) and never move.
func PlanMoves(old, new int, splitID uint64, groups []uint64) []Move {
	var out []Move
	for _, g := range groups {
		if g > splitID {
			continue
		}
		from, to := Owner(g, old), Owner(g, new)
		if from != to {
			out = append(out, Move{Group: g, From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// Batches splits a plan into batches of at most size moves. The bound
// is what keeps the plane responsive: each batch holds its groups' row
// locks only for one copy round trip, and installs its own epoch.
func Batches(moves []Move, size int) [][]Move {
	if size < 1 {
		size = 1
	}
	var out [][]Move
	for len(moves) > 0 {
		n := size
		if n > len(moves) {
			n = len(moves)
		}
		out = append(out, moves[:n])
		moves = moves[n:]
	}
	return out
}

// Stats counts what one plane's resharding activity did. The data
// plane (core) increments it; Deployment.Counters surfaces it as the
// mds.reshard-* counters.
type Stats struct {
	// Reshards is the number of completed Reshard calls.
	Reshards int64 `counter:"runs"`
	// Epochs is the number of map versions installed (Begin, one per
	// batch Commit, Finish).
	Epochs int64 `counter:"epochs"`
	// GroupsMoved counts migrated groups (inode ids).
	GroupsMoved int64 `counter:"groups-moved"`
	// RowsMoved counts migrated table rows (inode and dentry rows
	// together).
	RowsMoved int64 `counter:"rows-moved"`
	// BytesMoved is the migration traffic carried shard-to-shard.
	BytesMoved int64 `counter:"bytes-moved"`
	// Redirects counts requests a shard bounced with ErrWrongEpoch
	// because the client's map version raced a move.
	Redirects int64 `counter:"redirects"`
	// Refetches counts client shard-map refetches after a redirect.
	Refetches int64 `counter:"refetches"`
	// Recalls counts client lease recalls issued at batch commits (the
	// recall storms the lease table absorbs during a migration).
	Recalls int64 `counter:"lease-recalls"`
	// HandoffRecords counts WAL cursor records shipped with migration
	// batches and acknowledged durable by their targets (the
	// mds.reshard-wal-handoff counter).
	HandoffRecords int64 `counter:"wal-handoff"`
	// Retired counts drained shards fully retired after a shrink
	// settled — sessions disconnected, replicas stopped, host released
	// (the mds.reshard-retired counter).
	Retired int64 `counter:"retired"`
}
