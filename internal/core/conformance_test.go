package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
	"cofs/internal/vfs/conformance"
)

// COFS must be semantically indistinguishable from the file system it
// interposes (section III: "the COFS prototype is POSIX compliant") at
// every point of the deployment space: store backend, shard count,
// client-cache mode, lock mode. TestConformanceMatrix runs the full
// battery — including the crash/recover, crash/promote and live-reshard
// capability cases — against the whole cross-product; the plain
// TestConformance variants keep the paper's default deployment and the
// attr-cache extension directly greppable.

// cofsSystem deploys a two-node COFS testbed for one conformance case
// and wires every capability hook: crash/recover and standby-promote
// over the plane's WAL machinery, live reshard over the handoff
// protocol, and a second mount for the coherence cases. With excl set
// both the primary and the standby plane run exclusive-only row locks,
// so the lock mode holds after a Promote and through reshards.
func cofsSystem(seed int64, cfg params.Config, excl bool) *conformance.System {
	tb := cluster.New(seed, 2, cfg)
	d := core.Deploy(tb, nil)
	sb := core.DeployStandby(tb, d, 10*time.Millisecond)
	if excl {
		core.ExclusiveRowLocksForTest(d.Service)
		core.ExclusiveRowLocksForTest(sb.Cluster)
	}
	tb.Run()
	return &conformance.System{
		Env:    tb.Env,
		Mount:  d.Mounts[0],
		User:   vfs.Ctx{Node: 0, PID: 1, UID: 1000, GID: 100},
		Other:  vfs.Ctx{Node: 0, PID: 2, UID: 2000, GID: 200},
		Root:   vfs.Ctx{Node: 0, PID: 3, UID: 0, GID: 0},
		Mount2: d.Mounts[1],
		User2:  vfs.Ctx{Node: 1, PID: 1, UID: 1000, GID: 100},
		Shards: cfg.COFS.MetadataShards,
		Check:  func() error { return d.Service.CheckInvariants() },
		Crash:  func() { d.Service.Crash() },
		Recover: func(p *sim.Proc) {
			d.Service.Recover(p)
			d.Service.AdoptIDCounter()
		},
		Promote: func(p *sim.Proc) { sb.Promote(d) },
		Reshard: func(p *sim.Proc, n int) error { return d.Service.Reshard(p, n) },
	}
}

// cofsCaps declares what a COFS deployment supports. Negative-dentry
// leases exist only in lease-cache mode and the stale-free standby
// read battery only applies when the deployment routes reads through
// its standbys; everything else holds across the whole matrix.
func cofsCaps(cfg params.Config) conformance.Capabilities {
	return conformance.Capabilities{
		Permissions:          true,
		Hardlinks:            true,
		RenameOverNonempty:   true,
		NegativeDentryLeases: cfg.COFS.AttrLease > 0,
		CrashRecover:         true,
		Handoff:              true,
		StandbyReads:         cfg.COFS.StandbyReads,
	}
}

// cofsProvider builds the conformance provider for one deployment
// configuration (excl selects exclusive-only row locks), deriving a
// distinct deterministic seed per case from the configuration axes.
func cofsProvider(name string, seed int64, cfg params.Config, excl bool) conformance.Provider {
	return conformance.Provider{
		Name:         name,
		Capabilities: cofsCaps(cfg),
		New: func(t *testing.T) *conformance.System {
			return cofsSystem(seed, cfg, excl)
		},
	}
}

// TestConformance runs the battery against the paper's default
// deployment (single shard, mdb store, no client cache).
func TestConformance(t *testing.T) {
	conformance.Run(t, cofsProvider("cofs", 13, params.Default(), false))
}

// TestConformanceWithAttrCache repeats the battery with the client
// attribute cache (the paper's section IV-B extension) enabled: the
// cache must be invisible to correctness, only to timing.
func TestConformanceWithAttrCache(t *testing.T) {
	cfg := params.Default()
	cfg.COFS.AttrCacheTimeout = cfg.FUSE.EntryTimeout
	conformance.Run(t, cofsProvider("cofs-attrcache", 17, cfg, false))
}

// TestConformanceMatrix is the provider-grade cross-product: every
// store backend × shard count × client-cache mode × lock mode ×
// standby-read routing, each running the full battery plus the
// crash/promote and reshard replays. Exclusive row locks only change
// behaviour where the cross-shard transaction layer runs, so the excl
// axis starts at 2 shards; the standby-read axis is bounded to the
// shared-lock cells (routing reads through standbys is orthogonal to
// the lock mode, which the plain cells already cross).
func TestConformanceMatrix(t *testing.T) {
	axis := 0
	for _, backend := range []string{"mdb", "mdls"} {
		for _, shards := range []int{1, 2, 4} {
			for _, lease := range []bool{false, true} {
				for _, excl := range []bool{false, true} {
					for _, sbr := range []bool{false, true} {
						if excl && shards == 1 {
							continue
						}
						if sbr && excl {
							continue
						}
						axis++
						cfg := params.Default()
						cfg.COFS.MetadataStore = backend
						cfg.COFS.MetadataShards = shards
						cfg.COFS.StandbyReads = sbr
						if lease {
							cfg.COFS.AttrLease = 30 * time.Second
							cfg.COFS.RPCBatch = true
						}
						mode := "nolease"
						if lease {
							mode = "lease"
						}
						locks := "shared"
						if excl {
							locks = "excl"
						}
						name := fmt.Sprintf("%s/%dshards/%s-%s", backend, shards, mode, locks)
						if sbr {
							name += "-sbreads"
						}
						seed := int64(100 + axis)
						t.Run(name, func(t *testing.T) {
							conformance.Run(t, cofsProvider("cofs-"+name, seed, cfg, excl))
						})
					}
				}
			}
		}
	}
}
