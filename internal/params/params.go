// Package params centralizes every calibrated constant of the simulated
// testbed so the whole model can be tuned from one place.
//
// The defaults reproduce the paper's testbed (section II-A): IBM JS20
// blades (2 cores, 4 GB), 1 Gb blade-center switch, two external file
// servers on 1 Gb links, GPFS v3.1-era behaviour, and a COFS metadata
// service backed by a local ext3 disk. Absolute values are models — the
// goal is to reproduce the *shape* of the paper's figures (who wins, by
// what factor, where the knees fall), not testbed-exact numbers.
package params

import "time"

// Config bundles all model parameters. Zero value is not useful; start
// from Default() and override fields in experiments/ablations.
type Config struct {
	Network NetworkParams
	Disk    DiskParams
	PFS     PFSParams
	FUSE    FUSEParams
	COFS    COFSParams
}

// NetworkParams describes the cluster interconnect.
type NetworkParams struct {
	// HopLatency is the one-way propagation + switching delay per
	// traversed link (NIC/stack + switch port, GbE circa 2006).
	HopLatency time.Duration
	// EdgeBandwidth is the host/server NIC bandwidth (1 Gb/s minus
	// protocol overhead).
	EdgeBandwidth float64 // bytes per second
	// UplinkBandwidth is the bandwidth of inter-switch trunks in the
	// hierarchical 64-node topology (the paper notes it was limited).
	UplinkBandwidth float64
	// RPCOverheadBytes is added to every message for headers.
	RPCOverheadBytes int64
}

// DiskParams describes the rotational disks behind the file servers and
// the COFS metadata service.
type DiskParams struct {
	// AccessTime is the average positioning cost (seek + rotation) of a
	// random access.
	AccessTime time.Duration
	// SeqAccessTime is the positioning cost when the disk head is
	// already in place (track-to-track / same extent).
	SeqAccessTime time.Duration
	// TransferRate is the media transfer rate in bytes per second.
	TransferRate float64
	// SyncTime is the cost of a journal flush (fsync); group commit
	// batches concurrent commits into one flush.
	SyncTime time.Duration
}

// PFSParams describes the GPFS-like parallel file system.
type PFSParams struct {
	// Servers is the number of metadata+data file servers (NSD servers).
	Servers int
	// ServerWorkers is the per-server RPC worker thread count.
	ServerWorkers int
	// ServerCPUPerOp is the CPU time a server spends on one metadata
	// RPC (mmfsd-style request processing on 2006-era hardware).
	ServerCPUPerOp time.Duration
	// ClientCPUPerOp is the client-side CPU cost of a metadata
	// operation served entirely from local cache (the "local file
	// system rate" of Fig. 1's fast region).
	ClientCPUPerOp time.Duration

	// InodesPerBlock is how many inodes are packed into one inode block
	// — the false-sharing lock unit the paper blames (section II-B).
	InodesPerBlock int
	// DirBlockEntries is how many directory entries one directory block
	// holds; dir blocks are the create-path lock unit.
	DirBlockEntries int

	// MaxFilesToCache is the client inode/stat cache capacity (GPFS's
	// maxFilesToCache, 1000-ish by default in v3.1: the 1024-entry
	// cliff of Fig. 1).
	MaxFilesToCache int
	// TokenCacheEntries bounds the client token cache (GPFS maxTokens
	// scaled to block-granular tokens); beyond it every operation pays
	// a token round trip on top of the attribute fetch.
	TokenCacheEntries int
	// ClientDirCacheBlocks is the client cache capacity for directory
	// blocks.
	ClientDirCacheBlocks int
	// ServerInodeCacheBlocks is the server buffer-cache capacity for
	// inode blocks.
	ServerInodeCacheBlocks int
	// ServerDirCacheBlocks is the server buffer-cache capacity for
	// directory blocks (small: the create slowdown past ~512 entries in
	// Fig. 1 comes from misses here).
	ServerDirCacheBlocks int

	// TokenRevokeFlush is the time a client needs to quiesce and force
	// its log when an exclusive token is revoked, excluding the
	// writeback RPC and commit charged separately.
	TokenRevokeFlush time.Duration
	// StatExclusive models GPFS's packed-inode ownership: reading exact
	// attributes of a regular file takes block ownership, so cross-node
	// stats of files packed together conflict (the paper's
	// false sharing, sections II-B and II-C).
	StatExclusive bool
	// LocalMutationTime is the cost of a journaled local directory
	// mutation under write delegation (log append + in-memory update).
	LocalMutationTime time.Duration

	// CreateDelegationMaxEntries: a node holding a directory's token
	// exclusively creates/unlinks locally while the directory is below
	// this size (Fig. 1 shows create leaving the fast region at ~512
	// entries); larger directories mutate at the server.
	CreateDelegationMaxEntries int

	// StripeSize is the data striping unit across servers.
	StripeSize int64
	// PagePoolBytes is the per-client data cache (GPFS pagepool).
	PagePoolBytes int64
	// MemCopyRate is the in-memory copy bandwidth used for cache hits
	// and buffer copies.
	MemCopyRate float64
}

// FUSEParams models the user/kernel interposition cost of the FUSE layer.
type FUSEParams struct {
	// CrossingTime is the fixed cost of one request through the kernel
	// FUSE path (two context switches + queueing).
	CrossingTime time.Duration
	// CopyRate is the extra user-space buffer copy bandwidth for data
	// requests (the "double buffer copying" of section IV-B).
	CopyRate float64
	// MaxWrite is the largest data payload per FUSE request; larger
	// reads/writes are split into multiple crossings.
	MaxWrite int64
	// EntryTimeout is how long the kernel may cache name->inode
	// resolutions from this mount (FUSE entry_timeout); 0 means the
	// cache never expires (coherent in-kernel file systems).
	EntryTimeout time.Duration
}

// COFSParams describes the COFS prototype itself.
type COFSParams struct {
	// MetadataShards is the number of independent metadata service
	// shards, each on its own simulated host with its own disk and
	// tables. 1 (or 0) reproduces the paper's single-service prototype;
	// larger values distribute the metadata plane, with inodes routed by
	// a deterministic shard map and cross-shard mutations running a
	// two-phase protocol (see internal/core/mds.go and docs/sharding.md).
	MetadataShards int
	// ServiceCPUPerOp is the metadata service CPU time per request
	// (request decode + Mnesia-style query).
	ServiceCPUPerOp time.Duration
	// ServiceWorkers is the service's worker pool (Erlang scheduler
	// threads on the 2-core service blade).
	ServiceWorkers int
	// DBOpTime is the in-memory table operation cost inside a
	// transaction.
	DBOpTime time.Duration
	// LogFlushInterval: the service WAL is flushed to its local ext3
	// disk at this interval (Mnesia dump/soft-real-time behaviour);
	// transactions do not wait for it.
	LogFlushInterval time.Duration
	// DirFanout is the number of hash buckets per level used by the
	// placement driver.
	DirFanout int
	// RandomSubdirs is the randomization factor: number of random
	// subdirectories below the hashed path (section III-B).
	RandomSubdirs int
	// MaxEntriesPerDir is the hard cap on underlying directory size
	// (512 in the paper).
	MaxEntriesPerDir int
	// AttrCacheTimeout enables the client-side attribute/mapping cache
	// the paper proposes as future work in section IV-B (0 disables it,
	// matching the measured prototype). Entries are revalidated after
	// this window, NFS/FUSE attribute-timeout style.
	AttrCacheTimeout time.Duration
	// AttrCacheEntries caps the client attribute cache.
	AttrCacheEntries int
	// AttrLease upgrades the client cache from TTL revalidation to
	// server-issued leases of this term: shards remember which client
	// holds a lease on which attribute/dentry and revoke it on any
	// cross-node mutation, so cached entries are coherent at any shard
	// and node count (no TTL staleness). 0 disables leases (the paper's
	// measured prototype); when both AttrLease and AttrCacheTimeout are
	// set, leases win.
	AttrLease time.Duration
	// ReshardBatchRows bounds how many groups (inode ids, with their
	// dentries and mappings) one resharding batch migrates while
	// holding their row locks: the unit of the dip a live reshard
	// inflicts on concurrent traffic (see internal/reshard and
	// docs/resharding.md). 0 selects the default (64).
	ReshardBatchRows int
	// MetadataStore names the per-shard store backend deployed behind
	// the metadata plane, resolved through the provider registry
	// (internal/store; docs/backends.md). "" and "mdb" select the
	// Mnesia-style WAL store the paper's prototype ran — the default
	// deployment is bit-identical to a build without the registry,
	// pinned by an absolute cost test (TestStoreAbsoluteCostPin), the
	// way the dormant reshard machinery and the uncontended lock layer
	// are pinned. "mdls" selects the log-structured checkpoint+journal
	// store. Unknown names fail deployment fast with the registered
	// list.
	MetadataStore string
	// RPCBatch enables request batching on the client→shard (and
	// shard→shard) RPC channels: concurrent requests to the same shard
	// coalesce into one wire round trip while the previous one is in
	// flight. Off by default — the paper's prototype issues one RPC per
	// operation.
	RPCBatch bool
	// StandbyReads routes read operations (Lookup/Getattr/Readdir/
	// ReaddirPlus) to a deployed hot standby's shards when the shard's
	// replication cursor provably covers the row's last commit, falling
	// back to the primary — charged as a redirect — when it does not
	// (docs/replication.md). It also turns on the per-row last-commit
	// stamps the freshness check needs (mdb.DB.TrackStamps). Off by
	// default and bit-identical when off, pinned like the other
	// cost-identity knobs; leases are still granted only by the
	// primary.
	StandbyReads bool
	// Trace enables the virtual-time span tracer (internal/obs): every
	// client operation opens a span with child spans at the RPC,
	// row-lock, two-phase, WAL, standby and reshard seams, exportable as
	// Chrome trace-event JSON (`cofsctl -trace out.json`, one Perfetto
	// track per proc grouped by host) — docs/observability.md. Off by
	// default; when off no obs hook is installed anywhere, the hot paths
	// allocate nothing for it, and every cost pin stays bit-identical
	// (tracing never charges virtual time either way).
	Trace bool
	// Metrics enables the histogram/gauge/rate metrics registry
	// (internal/obs): per-(op,shard) log-bucketed latency histograms
	// (p50/p95/p99), queue-depth and lock-occupancy gauges, and
	// per-shard sliding-window request/row-move rates — the skew feed
	// the auto-reshard controller consumes — exposed as
	// Deployment.Metrics(). Off by default with the same zero-cost
	// contract as Trace.
	Metrics bool
}

// Default returns the calibrated testbed configuration.
func Default() Config {
	return Config{
		Network: NetworkParams{
			HopLatency:       55 * time.Microsecond,
			EdgeBandwidth:    110e6, // ~1 Gb/s effective
			UplinkBandwidth:  110e6,
			RPCOverheadBytes: 96,
		},
		Disk: DiskParams{
			AccessTime:    2500 * time.Microsecond,
			SeqAccessTime: 350 * time.Microsecond,
			TransferRate:  60e6,
			SyncTime:      2800 * time.Microsecond,
		},
		PFS: PFSParams{
			Servers:                    2,
			ServerWorkers:              16,
			ServerCPUPerOp:             550 * time.Microsecond,
			ClientCPUPerOp:             70 * time.Microsecond,
			InodesPerBlock:             32,
			DirBlockEntries:            32,
			MaxFilesToCache:            1024,
			TokenCacheEntries:          48,
			ClientDirCacheBlocks:       256,
			ServerInodeCacheBlocks:     4096, // 16 MB of a large pagepool
			ServerDirCacheBlocks:       2048,
			TokenRevokeFlush:           1200 * time.Microsecond,
			StatExclusive:              true,
			LocalMutationTime:          450 * time.Microsecond,
			CreateDelegationMaxEntries: 512,
			StripeSize:                 1 << 20,
			PagePoolBytes:              256 << 20,
			MemCopyRate:                1.6e9,
		},
		FUSE: FUSEParams{
			CrossingTime: 35 * time.Microsecond,
			CopyRate:     1.2e9,
			MaxWrite:     128 << 10,
			EntryTimeout: time.Second,
		},
		COFS: COFSParams{
			MetadataShards:   1, // the paper's single-service deployment
			ServiceCPUPerOp:  200 * time.Microsecond,
			ServiceWorkers:   4,
			DBOpTime:         22 * time.Microsecond,
			LogFlushInterval: 100 * time.Millisecond,
			DirFanout:        64,
			RandomSubdirs:    8,
			MaxEntriesPerDir: 512,
			AttrCacheTimeout: 0, // disabled, as in the paper's prototype
			AttrCacheEntries: 4096,
			AttrLease:        0, // coherent lease cache off (paper prototype)
			ReshardBatchRows: 64,
			RPCBatch:         false, // one RPC per op (paper prototype)
		},
	}
}
