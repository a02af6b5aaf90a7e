// Package cluster assembles the simulated testbed of the paper's section
// II-A: IBM JS20 blades (2 cores) behind a 1 Gb blade-center switch, two
// external file servers on 1 Gb links running the GPFS-like file system,
// and — for the 64-node experiment of Fig. 6 — additional blade centers
// reached across several switches.
package cluster

import (
	"fmt"

	"cofs/internal/netsim"
	"cofs/internal/params"
	"cofs/internal/pfs"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// BladesPerCenter is how many blades one blade center holds before the
// testbed grows a new (hierarchically connected) center.
const BladesPerCenter = 14

// Testbed is a fully assembled simulated cluster with the parallel file
// system mounted (bare, no FUSE layer) on every node.
type Testbed struct {
	Env     *sim.Env
	Net     *netsim.Net
	Cfg     params.Config
	Nodes   []*netsim.Host
	Servers []*netsim.Host
	FS      *pfs.Server
	Clients []*pfs.Client
	Mounts  []*vfs.Mount
}

// New builds a testbed with the given number of compute nodes. Nodes
// beyond BladesPerCenter land in extra blade centers whose switches are
// chained back to the original center (center k pays k trunk hops), as in
// the paper's 64-node extension.
func New(seed int64, nodes int, cfg params.Config) *Testbed {
	if nodes < 1 {
		panic("cluster: need at least one node")
	}
	env := sim.NewEnv(seed)
	net := netsim.New(env, cfg.Network)
	tb := &Testbed{Env: env, Net: net, Cfg: cfg}

	for i := 0; i < cfg.PFS.Servers; i++ {
		// File servers: external Intel boxes; CPU capacity models the
		// RPC worker pool.
		tb.Servers = append(tb.Servers, net.AddHost(fmt.Sprintf("server%d", i), cfg.PFS.ServerWorkers, 0))
	}
	connected := map[int]bool{0: true}
	for i := 0; i < nodes; i++ {
		center := i / BladesPerCenter
		if !connected[center] {
			net.Connect(center, 0, center)
			connected[center] = true
		}
		tb.Nodes = append(tb.Nodes, net.AddHost(fmt.Sprintf("blade%02d", i), 2, center))
	}

	tb.FS = pfs.NewServer(net, tb.Servers, cfg)
	for i, h := range tb.Nodes {
		c := tb.FS.NewClient(h, i)
		tb.Clients = append(tb.Clients, c)
		// Bare mount: the GPFS-like client is an in-kernel file system,
		// no FUSE crossing costs.
		tb.Mounts = append(tb.Mounts, vfs.NewMount(c, params.FUSEParams{}))
	}
	return tb
}

// Run drains the simulation, panicking on deadlock (benchmark style).
func (tb *Testbed) Run() { tb.Env.MustRun() }

// Ctx returns a caller context for the given node and process id.
func Ctx(node, pid int) vfs.Ctx {
	return vfs.Ctx{Node: node, PID: pid, UID: 1000, GID: 100}
}
