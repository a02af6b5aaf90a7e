package core

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/rpc"
	"cofs/internal/sim"
)

// TestPlaneShapeFitted checks that everything sized by a plane's shard
// count matches it after each reshape: deploy, standby attach, a 1→4
// grow under a create/stat storm, a 4→2 shrink and a promotion — and
// at every migration step point in between (mid-shrink the plane still
// has its drained shards, so n is the shard count, not the target).
func TestPlaneShapeFitted(t *testing.T) {
	cfg := params.Default()
	cfg.COFS.MetadataShards = 1
	cfg.COFS.Trace = true
	cfg.COFS.Metrics = true
	cfg.COFS.StandbyReads = true
	tb := cluster.New(1717, 4, cfg)
	d := Deploy(tb, nil)
	tb.Run()
	sb := DeployStandby(tb, d, time.Millisecond)
	tb.Run()
	tr, m := d.Tracer(), d.Metrics()
	if tr == nil || m == nil {
		t.Fatal("deployment has no tracer or metrics")
	}
	// Files for the reshards to move, and for the storm to list.
	ReshardBatchRowsForTest(d.Service, 4)
	tb.Env.Spawn("tree", func(p *sim.Proc) {
		ctx := cluster.Ctx(0, 1)
		for i := 0; i < 32; i++ {
			f, err := d.Mounts[0].Create(p, ctx, fmt.Sprintf("/t%02d", i), 0644)
			if err != nil {
				t.Error(err)
				return
			}
			f.Close(p)
		}
	})
	tb.Run()

	check := func(at string) {
		t.Helper()
		c := d.Service
		n := len(c.shards)
		checkMesh(t, at, c)
		if !c.Maps.Current().Migrating() && n != c.ServingShards() {
			t.Errorf("%s: %d shards, map serves %d", at, n, c.ServingShards())
		}
		traced := func(what string, conn *rpc.Conn) {
			t.Helper()
			if conn != nil && conn.Trace != tr {
				t.Errorf("%s: %s not traced", at, what)
			}
		}
		for i, s := range c.shards {
			for j, pc := range s.peers {
				traced(fmt.Sprintf("peer %d->%d", i, j), pc)
			}
		}
		if c.reshardHost != nil {
			if len(c.reshardConns) != n {
				t.Errorf("%s: reshard rig has %d conns, want %d", at, len(c.reshardConns), n)
			}
			for i, conn := range c.reshardConns {
				traced(fmt.Sprintf("reshard conn %d", i), conn)
			}
		}
		for _, sby := range c.standbys {
			if len(sby.Replicas) != n {
				t.Errorf("%s: standby has %d replicas, want %d", at, len(sby.Replicas), n)
			}
			checkMesh(t, at+" (standby)", sby.Cluster)
		}
		sbn := 0
		if rs := c.readStandby(); rs != nil {
			sbn = len(rs.Cluster.shards)
		}
		if len(c.sessions) != len(d.FSs) {
			t.Errorf("%s: %d sessions, want %d", at, len(c.sessions), len(d.FSs))
		}
		for k, sess := range c.sessions {
			if len(sess.conns) != n || len(sess.sbconns) != sbn {
				t.Errorf("%s: session %d has %d conns and %d standby conns, want %d and %d",
					at, k, len(sess.conns), len(sess.sbconns), n, sbn)
			}
			for i, conn := range sess.conns {
				traced(fmt.Sprintf("session %d conn %d", k, i), conn)
				if conn.Queue != m.QueueGauge(i) {
					t.Errorf("%s: session %d conn %d does not feed queue-depth[%d]", at, k, i, i)
				}
			}
			for i, conn := range sess.sbconns {
				traced(fmt.Sprintf("session %d standby conn %d", k, i), conn)
			}
		}
	}
	check("deploy")
	steps := 0
	d.Service.OnReshardStep(func(seq int, at ReshardPoint) bool {
		check(fmt.Sprintf("step %d (%s)", seq, at))
		steps++
		return false
	})
	reshard := func(to int) {
		t.Helper()
		for node := 1; node < len(d.Mounts); node++ {
			node := node
			tb.Env.Spawn("storm", func(p *sim.Proc) {
				ctx := cluster.Ctx(node, 1)
				for i := 0; i < 24; i++ {
					f, err := d.Mounts[node].Create(p, ctx, fmt.Sprintf("/n%d-%d-%02d", to, node, i), 0644)
					if err != nil {
						t.Errorf("create during reshard to %d: %v", to, err)
						return
					}
					f.Close(p)
					if _, err := d.Mounts[node].Stat(p, ctx, fmt.Sprintf("/t%02d", i)); err != nil {
						t.Errorf("stat during reshard to %d: %v", to, err)
						return
					}
				}
			})
		}
		tb.Env.Spawn("reshard", func(p *sim.Proc) {
			if err := d.Service.Reshard(p, to); err != nil {
				t.Errorf("reshard to %d: %v", to, err)
			}
		})
		tb.Run()
		check(fmt.Sprintf("reshard to %d", to))
	}
	reshard(4)
	reshard(2)
	if steps == 0 {
		t.Fatal("the reshards fired no step points")
	}
	sb.Promote(d)
	tb.Run()
	check("promote")
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkMesh checks a plane's shard-count-sized structures that carry
// no obs hooks: every shard has one peer slot per shard, nil exactly at
// its own, and the row-lock table exists iff there is more than one
// shard.
func checkMesh(t *testing.T, at string, c *MDSCluster) {
	t.Helper()
	n := len(c.shards)
	for i, s := range c.shards {
		if len(s.peers) != n {
			t.Errorf("%s: shard %d has %d peers, want %d", at, i, len(s.peers), n)
			continue
		}
		for j, pc := range s.peers {
			if (pc == nil) != (i == j) {
				t.Errorf("%s: shard %d peer slot %d nil=%v", at, i, j, pc == nil)
			}
		}
	}
	if (c.rowLocks != nil) != (n > 1) {
		t.Errorf("%s: %d shards, row-lock table present=%v", at, n, c.rowLocks != nil)
	}
}
