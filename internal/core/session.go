package core

import (
	"cofs/internal/netsim"
	"cofs/internal/reshard"
	"cofs/internal/rpc"
	"cofs/internal/sim"
)

// Session is one client's connection to the metadata plane: a typed RPC
// channel (rpc.Conn) per shard, plus the client cache the shards grant
// leases into. All client↔MDS traffic flows through the session's
// conns; the per-operation network and CPU costs that the prototype
// charged inline in the Service methods live in the transport now.
type Session struct {
	node  int
	host  *netsim.Host
	cache *clientCache
	conns []*rpc.Conn
	// sbconns are the per-shard channels to a read-serving standby
	// plane (replication.go), in shard order; empty unless the plane
	// has one. Standby reads travel them so the standby hosts' CPU and
	// wire costs are charged where they land; all mutations — and every
	// read the standby cannot prove fresh — stay on conns.
	sbconns []*rpc.Conn
	// view is the shard-map version this client routes by (the epoch it
	// stamps its requests with — the stamp itself rides the RPC header
	// already charged to every message). It is refreshed only when a
	// shard redirects with ErrWrongEpoch, so with no migration in
	// flight the session shares the plane's settled version forever.
	view *reshard.Map
	// stats is the client's transport counter block (FS.transport).
	// Every channel the session dials counts into it, so the counts
	// outlive the channels: a shrink dropping some, a failover
	// re-dialing the whole session.
	stats *rpc.ConnStats
}

// Connect attaches a client to the plane: one channel per shard,
// batching per the plane's RPCBatch knob, each counting into stats.
// The cache is the client's attribute/dentry cache; shards install
// lease-granted entries into it and recall them on conflicting
// mutations.
func (c *MDSCluster) Connect(host *netsim.Host, node int, cache *clientCache, stats *rpc.ConnStats) *Session {
	sess := &Session{node: node, host: host, cache: cache, view: c.Maps.Current(), stats: stats}
	for _, s := range c.shards {
		sess.conns = append(sess.conns, sess.dial(s))
	}
	if sb := c.readStandby(); sb != nil {
		for _, s := range sb.Cluster.shards {
			sess.sbconns = append(sess.sbconns, sess.dial(s))
		}
	}
	c.sessions = append(c.sessions, sess)
	c.wireSessionObs(sess)
	return sess
}

// dial opens the session's channel to shard s (primary or standby).
func (sess *Session) dial(s *Service) *rpc.Conn {
	return rpc.Dial(s.net, sess.host, s.host, s.cfg.RPCBatch, sess.stats)
}

// refetchMap fetches the current shard-map version after a redirect:
// one round trip to shard 0, which serves the map on the coordinator's
// behalf. The response carries the map descriptor plus the moved set
// (modelled as a bitmap over the ids below the newborn boundary), so a
// refetch mid-migration costs what shipping the version really would.
func (sess *Session) refetchMap(p *sim.Proc, c *MDSCluster) {
	c.ctr.reshard.Refetches++
	sess.conns[0].Call(p, rpc.Request{
		Op: rpc.OpMapFetch, ReqBytes: 32, CPU: c.cfg.ServiceCPUPerOp / 4,
		Run: func(p *sim.Proc) { sess.view = c.Maps.Current() },
		RespBytes: func() int64 {
			return 128 + int64(sess.view.MovedCount)/8
		},
	})
}

// TransportStats returns the client's transport counters: every
// channel this session, and any session it replaced at failover, has
// dialed counts into the same block.
func (sess *Session) TransportStats() rpc.ConnStats { return *sess.stats }
