// Package core implements COFS (COmposite File System), the paper's
// contribution: a virtualization layer that decouples the user-visible
// namespace and its metadata from the underlying file system layout
// (section III).
//
//   - The placement driver (this file) maps every regular file created in
//     the virtual tree to an underlying path computed from a hash of the
//     creating node, the virtual parent directory and the creating
//     process, plus a randomization level, capping underlying directories
//     at MaxEntriesPerDir (512 in the paper) — so parallel creates into
//     one shared virtual directory land in many small, node-private
//     underlying directories.
//   - The metadata driver and service (service.go) keep the virtual
//     hierarchy and file attributes in Mnesia-style tables; the only
//     data-placement information they hold is each regular file's
//     opaque underlying path, carried in its inode row.
//   - The COFS file system (fs.go) implements vfs.Filesystem on each
//     client, forwarding namespace/attribute operations to the service
//     and data operations to the underlying file system.
package core

import (
	"fmt"
	"hash/fnv"

	"cofs/internal/vfs"
)

// Placement computes the underlying bucket directory for a new file.
// Implementations must be deterministic in their inputs; the rnd value
// (supplied by the caller from a seeded stream) provides the paper's
// randomization factor.
type Placement interface {
	// BucketDir returns the underlying directory (relative to the COFS
	// object root) for a file created by (node, pid) in virtual
	// directory parent. rnd is a deterministic random value.
	BucketDir(node, pid int, parent vfs.Ino, rnd uint64) string
	// InitDirs returns the underlying directories to pre-create at
	// deployment time (the hash level), so that later bucket creation
	// only touches node-private parents instead of contending on the
	// shared top of the object tree.
	InitDirs() []string
	// Name identifies the policy in ablation reports.
	Name() string
}

func hash3(node, pid int, parent vfs.Ino) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put64(0, uint64(node))
	put64(8, uint64(pid))
	put64(16, uint64(parent))
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer: FNV over short, mostly-zero
// inputs leaves visible structure in the low bits, and the bucket index
// is taken mod fanout — without the finalizer, sequential (node, pid,
// parent) triples collapse onto half the buckets.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashPlacement is the paper's policy (section III-B): hash of (creating
// node, virtual parent, creating process) selects the bucket, and a
// randomization level below it spreads files that are created on one
// node but later accessed in parallel.
//
// Buckets are node-private by construction, not by luck of the hash:
// the Fanout buckets are partitioned among the Nodes creating nodes and
// the hash only picks among the creating node's own. With N <= Fanout
// nodes, node n owns buckets [n*floor(F/N), (n+1)*floor(F/N)); with
// N > Fanout, node n uses bucket n mod F, so at most ceil(N/F) nodes
// share one. A bucket directory therefore only ever takes creates from
// one node (or ceil(N/F)), and the underlying file system never passes
// its directory token between nodes.
type HashPlacement struct {
	// Fanout is the number of hash buckets (two hex levels are derived
	// from it).
	Fanout int
	// RandomSubdirs is the number of random subdirectories below the
	// hashed path; 0 or 1 disables the randomization level.
	RandomSubdirs int
	// Nodes is the number of creating nodes the buckets are partitioned
	// among. Deploy sets it from the testbed when it is 0; a BucketDir
	// call with 0 or 1 lets every node hash over all Fanout buckets.
	Nodes int
}

// bucket returns the hash bucket index of a create by (node, pid) in
// parent: one of the creating node's own buckets.
func (hp HashPlacement) bucket(node, pid int, parent vfs.Ino) uint64 {
	fanout := uint64(max(hp.Fanout, 1))
	nodes := uint64(max(hp.Nodes, 1))
	slot := uint64(node) % nodes
	if nodes > fanout {
		return slot % fanout
	}
	per := fanout / nodes
	return slot*per + hash3(node, pid, parent)%per
}

// BucketDir implements Placement.
func (hp HashPlacement) BucketDir(node, pid int, parent vfs.Ino, rnd uint64) string {
	dir := fmt.Sprintf("o/%03x", hp.bucket(node, pid, parent))
	if hp.RandomSubdirs > 1 {
		dir = fmt.Sprintf("%s/r%02d", dir, rnd%uint64(hp.RandomSubdirs))
	}
	return dir
}

// InitDirs implements Placement: the hash level — and, when enabled,
// the randomization level below it — is pre-created at install time, so
// short-lived processes (the paper's bunches of small batch jobs) never
// pay an underlying mkdir on their first creates.
func (hp HashPlacement) InitDirs() []string {
	fanout := hp.Fanout
	if fanout < 1 {
		fanout = 1
	}
	var out []string
	for i := 0; i < fanout; i++ {
		if hp.RandomSubdirs > 1 {
			for r := 0; r < hp.RandomSubdirs; r++ {
				out = append(out, fmt.Sprintf("o/%03x/r%02d", i, r))
			}
			continue
		}
		out = append(out, fmt.Sprintf("o/%03x", i))
	}
	return out
}

// Name implements Placement.
func (hp HashPlacement) Name() string { return "hash(node,parent,pid)+random" }

// NodeHashPlacement hashes only the creating node (ablation: no parent
// or process discrimination, no randomization level).
type NodeHashPlacement struct{ Fanout int }

// BucketDir implements Placement.
func (np NodeHashPlacement) BucketDir(node, pid int, parent vfs.Ino, rnd uint64) string {
	fanout := np.Fanout
	if fanout < 1 {
		fanout = 1
	}
	return fmt.Sprintf("n/%03x", uint64(node)%uint64(fanout))
}

// InitDirs implements Placement.
func (np NodeHashPlacement) InitDirs() []string {
	fanout := np.Fanout
	if fanout < 1 {
		fanout = 1
	}
	out := make([]string, fanout)
	for i := range out {
		out[i] = fmt.Sprintf("n/%03x", i)
	}
	return out
}

// Name implements Placement.
func (np NodeHashPlacement) Name() string { return "hash(node)" }

// FlatPlacement sends every file to one shared underlying directory —
// the no-virtualization baseline: the underlying file system sees the
// same hot directory the applications created.
type FlatPlacement struct{}

// BucketDir implements Placement.
func (FlatPlacement) BucketDir(node, pid int, parent vfs.Ino, rnd uint64) string { return "flat" }

// InitDirs implements Placement.
func (FlatPlacement) InitDirs() []string { return []string{"flat"} }

// Name implements Placement.
func (FlatPlacement) Name() string { return "flat (single shared dir)" }
