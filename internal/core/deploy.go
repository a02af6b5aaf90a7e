package core

import (
	"fmt"

	"cofs/internal/cluster"
	"cofs/internal/obs"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// Deployment is a COFS layer installed over a testbed's file system: a
// metadata service plane (one shard per configured MetadataShards, each
// on its own blade) plus a FUSE-mounted COFS client per compute node
// (Fig. 3 of the paper).
type Deployment struct {
	Service *MDSCluster
	FSs     []*FS
	Mounts  []*vfs.Mount

	// tb is the testbed COFS runs over: its pfs clients, server and
	// token manager count the underlying file system's work.
	tb *cluster.Testbed
}

// Deploy installs COFS on the testbed with the given placement policy
// (nil selects the paper's hash placement with the configured fanout and
// randomization). A HashPlacement without a node count is partitioned
// among the testbed's nodes, so its buckets are node-private. The
// service shards run on dedicated blades attached to the original
// blade-center switch, as in section IV; the paper's deployment is
// MetadataShards == 1.
func Deploy(tb *cluster.Testbed, place Placement) *Deployment {
	cfg := tb.Cfg
	if place == nil {
		place = HashPlacement{
			Fanout:        cfg.COFS.DirFanout,
			RandomSubdirs: cfg.COFS.RandomSubdirs,
		}
	}
	if hp, ok := place.(HashPlacement); ok && hp.Nodes == 0 {
		hp.Nodes = len(tb.Nodes)
		place = hp
	}
	svc := newPlane(tb.Net, cfg, "cofs-mds", cfg.COFS.MetadataShards)
	if cfg.COFS.Trace || cfg.COFS.Metrics {
		// Attached before the install traffic below so traces are
		// complete from the first operation.
		var tr *obs.Tracer
		var m *obs.Metrics
		if cfg.COFS.Trace {
			tr = obs.NewTracer()
		}
		if cfg.COFS.Metrics {
			m = obs.NewMetrics()
		}
		svc.EnableObs(tr, m)
	}
	d := &Deployment{Service: svc, tb: tb}
	// Install-time initialization: pre-create the hash (and random)
	// levels of the object tree from one node, so runtime creates land
	// in directories that already exist. The installing client then
	// relinquishes its tokens — otherwise every other node's first use
	// of a bucket would pay a revocation against the installer. The
	// install drains before Deploy returns.
	tb.Env.Spawn("cofs-init", func(p *sim.Proc) {
		ctx := vfs.Ctx{UID: 0, Node: 0}
		for _, dir := range place.InitDirs() {
			if err := tb.Mounts[0].MkdirAll(p, ctx, dir, 0700); err != nil {
				panic(fmt.Sprintf("cofs init: %v", err))
			}
		}
		tb.Clients[0].Relinquish(p)
	})
	tb.Env.MustRun()
	for i, node := range tb.Nodes {
		fs := NewFS(svc, node, i, tb.Mounts[i], place,
			cfg.COFS, tb.Env.RNG(fmt.Sprintf("cofs.place.%d", i)))
		for _, dir := range place.InitDirs() {
			fs.MarkDirMade(dir)
		}
		d.FSs = append(d.FSs, fs)
		// COFS is a userspace daemon: mount through the FUSE cost model.
		d.Mounts = append(d.Mounts, vfs.NewMount(fs, cfg.FUSE))
	}
	return d
}

// Tracer returns the deployment's span tracer, nil unless
// COFSParams.Trace enabled it at deploy time.
func (d *Deployment) Tracer() *obs.Tracer { return d.Service.Tracer() }

// Metrics returns the deployment's metrics registry — per-(op, shard)
// latency histograms, queue/lock gauges and the per-shard sliding
// request/row-move windows — nil unless
// COFSParams.Metrics enabled it at deploy time.
func (d *Deployment) Metrics() *obs.Metrics { return d.Service.Metrics() }

// Counters is the deployment's counter registry, one AddFields call per
// tagged stats block (docs/observability.md lists every name). The
// client blocks and the pfs client blocks sum over the nodes; per-node
// values stay on d.FSs[i] and the testbed's clients. Tools print it;
// tests assert against it.
//
// Every block is owned by what outlives the components counting into
// it: each client's transport block (FS) and the serving plane's
// counter block, which Standby.Promote hands over to the promoted
// plane. Channels, sessions, shards and planes can be dropped or
// replaced without any count being lost or folded.
func (d *Deployment) Counters() *stats.Counters {
	c := stats.NewCounters()
	for _, fs := range d.FSs {
		c.AddFields("rpc.client.", &fs.transport)
		c.AddFields("cache.", &fs.attrs.Stats)
		c.AddFields("cofs.", &fs.Stats)
	}
	ctr := &d.Service.ctr
	c.AddFields("rpc.peer.", &ctr.peer)
	c.AddFields("mds.standby-", &ctr.standby)
	c.AddFields("mds.", &ctr.svc)
	c.AddFields("mds.lock-", &ctr.locks)
	c.AddFields("mds.reshard-", &ctr.reshard)
	for _, pc := range d.tb.Clients {
		c.AddFields("pfs.client.", &pc.Stats)
	}
	c.AddFields("pfs.server.", &d.tb.FS.Stats)
	c.AddFields("pfs.token.", &d.tb.FS.Tokens.Stats)
	return c
}
