// Benchmarks regenerating every evaluation artifact of the paper, one
// per table/figure, plus ablations. Each benchmark iteration runs a full
// deterministic simulation and reports the paper's metric (virtual ms
// per metadata operation, or virtual MB/s) as custom units, so
// `go test -bench=.` reproduces the evaluation:
//
//	BenchmarkFig4Create/gpfs-4n   ... 20.5 vms/op
//	BenchmarkFig4Create/cofs-4n   ...  1.9 vms/op
package cofs_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/store"
	"cofs/internal/trace"
)

// metaratesMs runs one metarates configuration and returns the mean
// virtual latency of op in milliseconds.
func metaratesMs(seed int64, useCOFS bool, nodes, filesPerProc int, op string) float64 {
	tb := cluster.New(seed, nodes, params.Default())
	t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
	if useCOFS {
		t.Mounts = core.Deploy(tb, nil).Mounts
	}
	res := bench.Metarates(t, bench.MetaratesConfig{
		Nodes: nodes, ProcsPerNode: 1, FilesPerProc: filesPerProc,
		Dir: "/shared", Ops: []string{op},
	})
	return res.MeanMs(op)
}

// reportMs attaches the paper's metric to the benchmark output.
func reportMs(b *testing.B, ms float64) {
	b.Helper()
	b.ReportMetric(ms, "vms/op")
}

// BenchmarkFig1SingleNodeGPFS regenerates Fig. 1: single-node latency
// versus directory size on bare GPFS.
func BenchmarkFig1SingleNodeGPFS(b *testing.B) {
	for _, op := range bench.DefaultOps {
		for _, size := range []int{256, 1024, 2560} {
			b.Run(fmt.Sprintf("%s-%dfiles", op, size), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = metaratesMs(int64(i+1), false, 1, size, op)
				}
				reportMs(b, ms)
			})
		}
	}
}

// BenchmarkFig2ParallelGPFS regenerates Fig. 2: parallel shared-directory
// latency on bare GPFS at 4 and 8 nodes.
func BenchmarkFig2ParallelGPFS(b *testing.B) {
	for _, nodes := range []int{4, 8} {
		for _, op := range bench.DefaultOps {
			b.Run(fmt.Sprintf("%s-%dn-1024files", op, nodes), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = metaratesMs(int64(i+1), false, nodes, 1024/nodes, op)
				}
				reportMs(b, ms)
			})
		}
	}
}

// BenchmarkFig4Create regenerates Fig. 4: create latency, GPFS vs COFS.
func BenchmarkFig4Create(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, nodes := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s-%dn-512perNode", stack, nodes), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = metaratesMs(int64(i+1), stack == "cofs", nodes, 512, "create")
				}
				reportMs(b, ms)
			})
		}
	}
}

// BenchmarkFig5Stat regenerates Fig. 5: stat latency, GPFS vs COFS.
func BenchmarkFig5Stat(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, nodes := range []int{4, 8} {
			b.Run(fmt.Sprintf("%s-%dn-2048perNode", stack, nodes), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = metaratesMs(int64(i+1), stack == "cofs", nodes, 2048, "stat")
				}
				reportMs(b, ms)
			})
		}
	}
}

// BenchmarkFig6Scale64 regenerates Fig. 6: 64 nodes on the hierarchical
// topology, 256 files per node (create and stat; utime/open track stat).
func BenchmarkFig6Scale64(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, op := range []string{"create", "stat"} {
			b.Run(fmt.Sprintf("%s-%s", stack, op), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					ms = metaratesMs(int64(i+1), stack == "cofs", 64, 256, op)
				}
				reportMs(b, ms)
			})
		}
	}
}

// iorMBps runs one IOR configuration and returns (write, read) MB/s.
func iorMBps(seed int64, useCOFS bool, nodes int, size int64, shared, random bool) (float64, float64) {
	tb := cluster.New(seed, nodes, params.Default())
	t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
	if useCOFS {
		t.Mounts = core.Deploy(tb, nil).Mounts
	}
	res := bench.IOR(t, bench.IORConfig{
		Nodes: nodes, AggregateBytes: size, TransferSize: 1 << 20,
		Shared: shared, Random: random, Dir: "/ior", ReadBack: true,
	})
	return res.WriteMBps, res.ReadMBps
}

// BenchmarkTable1IOR regenerates Table I: IOR aggregate rates across the
// paper's pattern matrix (4 nodes, 256 MB aggregate shown; the
// experiments driver sweeps the full matrix).
func BenchmarkTable1IOR(b *testing.B) {
	cases := []struct {
		name           string
		shared, random bool
	}{
		{"separate-seq", false, false},
		{"separate-random", false, true},
		{"shared-seq", true, false},
		{"shared-random", true, true},
	}
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, tc := range cases {
			b.Run(stack+"-"+tc.name, func(b *testing.B) {
				var wr, rd float64
				for i := 0; i < b.N; i++ {
					wr, rd = iorMBps(int64(i+1), stack == "cofs", 4, 256<<20, tc.shared, tc.random)
				}
				b.ReportMetric(wr, "vMB/s-write")
				b.ReportMetric(rd, "vMB/s-read")
			})
		}
	}
}

// BenchmarkAblationPlacement regenerates the placement-policy ablation on
// the Fig. 4 create workload.
func BenchmarkAblationPlacement(b *testing.B) {
	full := params.Default()
	// "no-randomization" is the default placement with the random level
	// configured away, so it keeps the node-private hash buckets.
	noRand := params.Default()
	noRand.COFS.RandomSubdirs = 1
	policies := []struct {
		name  string
		place core.Placement
		cfg   params.Config
	}{
		{"paper-hash-rand-cap", nil, full},
		{"no-randomization", nil, noRand},
		{"node-hash-only", core.NodeHashPlacement{Fanout: full.COFS.DirFanout}, full},
		{"flat-baseline", core.FlatPlacement{}, full},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				tb := cluster.New(int64(i+1), 4, pol.cfg)
				d := core.Deploy(tb, pol.place)
				t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
				res := bench.Metarates(t, bench.MetaratesConfig{
					Nodes: 4, ProcsPerNode: 1, FilesPerProc: 512,
					Dir: "/shared", Ops: []string{"create"},
				})
				ms = res.MeanMs("create")
			}
			reportMs(b, ms)
		})
	}
}

// BenchmarkSimKernel measures raw event throughput of the simulation
// kernel itself (not a paper artifact; a repo health metric).
func BenchmarkSimKernel(b *testing.B) {
	tb := cluster.New(1, 1, params.Default())
	_ = tb
	b.Run("create-stat-cycle", func(b *testing.B) {
		tb := cluster.New(1, 1, params.Default())
		t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = bench.Metarates(t, bench.MetaratesConfig{
				Nodes: 1, ProcsPerNode: 1, FilesPerProc: 64,
				Dir: fmt.Sprintf("/b%d", i), Ops: []string{"create", "stat"},
			})
		}
	})
}

// BenchmarkMDTest runs the mdtest-style tree benchmark (extension) on
// both stacks in the contended shared-tree configuration, reporting the
// file-stat phase latency (the cross-node attribute path the paper's
// mechanism analysis centres on).
func BenchmarkMDTest(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		b.Run(stack+"-shared-shift", func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				tb := cluster.New(int64(i+1), 4, params.Default())
				t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
				if stack == "cofs" {
					t.Mounts = core.Deploy(tb, nil).Mounts
				}
				res := bench.MDTest(t, bench.MDTestConfig{
					Nodes: 4, Depth: 2, Branch: 4, FilesPerRank: 128,
					Shared: true, StatShift: true,
				})
				ms = res.MeanMs("file-stat")
			}
			reportMs(b, ms)
		})
	}
}

// BenchmarkTraceReplayBatch replays the batch-jobs trace (the paper's
// second motivating workload) on both stacks and reports the mean job
// output write latency.
func BenchmarkTraceReplayBatch(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		b.Run(stack, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				tb := cluster.New(int64(i+1), 4, params.Default())
				t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
				if stack == "cofs" {
					t.Mounts = core.Deploy(tb, nil).Mounts
				}
				tr := trace.GenBatchJobs(trace.BatchConfig{
					Nodes: 4, Jobs: 64, FilesPerJob: 4, BytesPerFile: 4 << 10,
					Stagger: 20 * time.Millisecond,
				})
				res, err := trace.Replay(t, tr, trace.ReplayOptions{Timed: true})
				if err != nil || res.Errors > 0 {
					b.Fatalf("replay: %v (errors %d, first %v)", err, res.Errors, res.FirstErr)
				}
				ms = res.PerKind[trace.WriteFile].MeanMs()
			}
			reportMs(b, ms)
		})
	}
}

// BenchmarkAblationDirCap regenerates the directory-cap ablation's three
// interesting points: an over-small cap, the paper's 512, and unbounded.
func BenchmarkAblationDirCap(b *testing.B) {
	for _, cap := range []int{64, 512, 0} {
		name := fmt.Sprintf("cap-%d", cap)
		if cap == 0 {
			name = "cap-unbounded"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				cfg := params.Default()
				cfg.COFS.MaxEntriesPerDir = cap
				cfg.COFS.RandomSubdirs = 1
				tb := cluster.New(int64(i+1), 4, cfg)
				// One bucket per node, as in the experiments driver:
				// the cap is the only variable (the default policy's
				// occasional node collisions would add noise).
				d := core.Deploy(tb, core.NodeHashPlacement{Fanout: 64})
				t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
				res := bench.Metarates(t, bench.MetaratesConfig{
					Nodes: 4, ProcsPerNode: 1, FilesPerProc: 2048,
					Dir: "/shared", Ops: []string{"create"},
				})
				ms = res.MeanMs("create")
			}
			reportMs(b, ms)
		})
	}
}

// BenchmarkAblationFalseSharing regenerates the packed-inode ablation's
// endpoints (1 vs 32 inodes per lock unit) on the 4-node stat workload.
func BenchmarkAblationFalseSharing(b *testing.B) {
	for _, pack := range []int{1, 32} {
		b.Run(fmt.Sprintf("inodesPerBlock-%d", pack), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				cfg := params.Default()
				cfg.PFS.InodesPerBlock = pack
				tb := cluster.New(int64(i+1), 4, cfg)
				t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
				res := bench.Metarates(t, bench.MetaratesConfig{
					Nodes: 4, ProcsPerNode: 1, FilesPerProc: 128,
					Dir: "/shared", Ops: []string{"stat"},
				})
				ms = res.MeanMs("stat")
			}
			reportMs(b, ms)
		})
	}
}

// BenchmarkShardScaling measures the sharded metadata plane on the
// mdtest create-heavy workload: 64 ranks (16 nodes x 4 procs) each
// working a private 4-leaf tree, at 1/2/4/8 metadata shards. The
// configuration provisions the *data* plane out of the way so the
// metadata service is the measured bottleneck: 16 underlying file
// servers, a directory fanout scaled to the rank count (the placement
// gives each of the 16 nodes 64 buckets, so its 4 ranks x 4 leaves
// rarely share one), and no randomization level (cold-bucket first
// touches would otherwise swamp the per-op mean). vms/op must decrease
// as shards grow.
func BenchmarkShardScaling(b *testing.B) {
	run := func(seed int64, shards int) *bench.MDTestResult {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		cfg.COFS.DirFanout = 1024
		cfg.COFS.RandomSubdirs = 1
		cfg.PFS.Servers = 16
		tb := cluster.New(seed, 16, cfg)
		d := core.Deploy(tb, nil)
		t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
		return bench.MDTest(t, bench.MDTestConfig{
			Nodes: 16, ProcsPerNode: 4, Depth: 1, Branch: 4, FilesPerRank: 128,
			Shared: false,
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("mdtest-create-%dshards", shards), func(b *testing.B) {
			var res *bench.MDTestResult
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				mt.Start()
				res = run(int64(i+1), shards)
				mt.Stop()
			}
			reportMs(b, res.MeanMs("file-create"))
			rec := bench.Record{
				Name: fmt.Sprintf("shard-scaling/create-%dshards", shards), Shards: shards,
				VmsPerOp: res.MeanMs("file-create"),
				Extra:    map[string]float64{"vms_per_op_stat": res.MeanMs("file-stat")},
			}
			mt.Fill(&rec, res.TotalOps())
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mdtest-stat-%dshards", shards), func(b *testing.B) {
			var res *bench.MDTestResult
			for i := 0; i < b.N; i++ {
				res = run(int64(i+1), shards)
			}
			reportMs(b, res.MeanMs("file-stat"))
		})
	}
}

// BenchmarkMillionFileStorm is the scale gate the allocation-lean
// kernel work exists for: 1024 ranks (64 nodes x 16 procs) each
// creating and statting 1024 files in a private 4-leaf tree —
// 1,048,576 files over 8 metadata shards, the mdtest configuration of
// BenchmarkShardScaling blown up 128x. The removal phases are dropped
// (MDTestConfig.Phases) to fit the CI bench budget; the create and
// stat storms are where the harness cost lives. The emitted
// BENCH_million-file-storm.json carries wall seconds and allocs/op —
// the figures the bench gate holds the harness to — alongside the
// usual deterministic vms/op.
func BenchmarkMillionFileStorm(b *testing.B) {
	run := func(seed int64) *bench.MDTestResult {
		cfg := params.Default()
		cfg.COFS.MetadataShards = 8
		cfg.COFS.DirFanout = 4096
		cfg.COFS.RandomSubdirs = 1
		cfg.PFS.Servers = 64
		tb := cluster.New(seed, 64, cfg)
		d := core.Deploy(tb, nil)
		t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
		return bench.MDTest(t, bench.MDTestConfig{
			Nodes: 64, ProcsPerNode: 16, Depth: 1, Branch: 4, FilesPerRank: 1024,
			Shared: false,
			Phases: []string{"tree-create", "file-create", "file-stat"},
		})
	}
	var res *bench.MDTestResult
	var mt bench.Meter
	for i := 0; i < b.N; i++ {
		mt.Start()
		res = run(int64(i + 1))
		mt.Stop()
	}
	reportMs(b, res.MeanMs("file-create"))
	b.ReportMetric(res.MeanMs("file-stat"), "vms/op-stat")
	rec := bench.Record{
		Name: "million-file-storm", Shards: 8,
		VmsPerOp: res.MeanMs("file-create"),
		Extra: map[string]float64{
			"vms_per_op_stat": res.MeanMs("file-stat"),
			"files":           float64(res.PhaseOps["file-create"]),
		},
	}
	mt.Fill(&rec, res.TotalOps())
	if err := bench.WriteRecord(rec); err != nil {
		b.Logf("bench record: %v", err)
	}
}

// BenchmarkMetadataCache documents the section IV-B win: the
// metarates-style stat/utime storm (4 nodes repeatedly `ls -l`-ing a
// shared 256-file directory with cross-node utime sweeps in between),
// with the client cache off versus the coherent lease cache on, at 1
// and 4 metadata shards. The lease rows must show a clear vms/op
// reduction on the stat-heavy workload while recalls keep the cache
// coherent (TestLeaseCacheCrossNodeCoherence pins correctness).
func BenchmarkMetadataCache(b *testing.B) {
	for _, shards := range []int{1, 4} {
		for _, mode := range []string{"nocache", "lease"} {
			shards, mode := shards, mode
			b.Run(fmt.Sprintf("%s-%dshards", mode, shards), func(b *testing.B) {
				var sum *stats.Summary
				var mt bench.Meter
				for i := 0; i < b.N; i++ {
					cfg := params.Default()
					cfg.COFS.MetadataShards = shards
					if mode == "lease" {
						cfg.COFS.AttrLease = 30 * time.Second
					}
					mt.Start()
					sum, _ = experiments.ClientCacheStorm(int64(i+1), cfg)
					mt.Stop()
				}
				reportMs(b, sum.MeanMs())
				rec := bench.Record{
					Name: fmt.Sprintf("metadata-cache/%s-%dshards", mode, shards), Shards: shards,
					VmsPerOp: sum.MeanMs(),
					P50Ms:    float64(sum.Percentile(50)) / float64(time.Millisecond),
					P99Ms:    float64(sum.Percentile(99)) / float64(time.Millisecond),
				}
				mt.Fill(&rec, sum.N())
				if err := bench.WriteRecord(rec); err != nil {
					b.Logf("bench record: %v", err)
				}
			})
		}
	}
}

// BenchmarkStoreBackends is the gated smoke test of the pluggable
// store layer (docs/backends.md): the client-cache storm on a
// single-shard plane, once per registered backend. The mdb row must
// stay bit-identical to the pre-seam store (the same workload
// BenchmarkMetadataCache gates); the mdls row pins the log-structured
// engine's cost envelope so a change to its append/compaction model
// cannot slip through unmeasured.
func BenchmarkStoreBackends(b *testing.B) {
	for _, backend := range store.Names() {
		backend := backend
		b.Run(backend+"-smoke", func(b *testing.B) {
			var sum *stats.Summary
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				cfg := params.Default()
				cfg.COFS.MetadataStore = backend
				mt.Start()
				sum, _ = experiments.ClientCacheStorm(int64(i+1), cfg)
				mt.Stop()
			}
			reportMs(b, sum.MeanMs())
			rec := bench.Record{
				Name: "store-backend/" + backend + "-smoke", Shards: 1,
				VmsPerOp: sum.MeanMs(),
				P50Ms:    float64(sum.Percentile(50)) / float64(time.Millisecond),
				P99Ms:    float64(sum.Percentile(99)) / float64(time.Millisecond),
			}
			mt.Fill(&rec, sum.N())
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
}

// BenchmarkStandbyReads pins the standby read path (docs/replication.md):
// the stat-dominated storm — 8 ranks `ls -l`-ing a shared 256-file
// directory while every rank's utime sweep keeps mutations landing on
// the primaries — once per shard count with reads on the primaries
// (off) and once routed through the per-shard hot standbys (on). The
// off rows must stay bit-identical to the pre-standby plane (the
// cost-identity contract of the StandbyReads knob); the on rows pin
// the win — stats escape the mutation-loaded primaries — and the
// mds.standby-reads / mds.standby-fallbacks counters in the record pin
// how many reads the freshness gate actually served versus redirected.
func BenchmarkStandbyReads(b *testing.B) {
	for _, shards := range []int{1, 2} {
		for _, mode := range []string{"off", "on"} {
			shards, mode := shards, mode
			b.Run(fmt.Sprintf("%s-%dshards", mode, shards), func(b *testing.B) {
				var sum *stats.Summary
				var c *stats.Counters
				var mt bench.Meter
				for i := 0; i < b.N; i++ {
					cfg := params.Default()
					cfg.COFS.MetadataShards = shards
					cfg.COFS.StandbyReads = mode == "on"
					mt.Start()
					sum, c = experiments.StandbyReadStorm(int64(i+1), cfg)
					mt.Stop()
				}
				reportMs(b, sum.MeanMs())
				rec := bench.Record{
					Name: fmt.Sprintf("standby-reads/%s-%dshards", mode, shards), Shards: shards,
					VmsPerOp: sum.MeanMs(),
					P50Ms:    float64(sum.Percentile(50)) / float64(time.Millisecond),
					P99Ms:    float64(sum.Percentile(99)) / float64(time.Millisecond),
				}
				mt.Fill(&rec, sum.N())
				rec.SetCounters(c)
				if err := bench.WriteRecord(rec); err != nil {
					b.Logf("bench record: %v", err)
				}
			})
		}
	}
}

// BenchmarkReshardUnderLoad pins the cost of online resharding under
// load (docs/resharding.md): a create/stat/utime storm — 8 ranks (4
// nodes x 2 procs), shared directory, coherent lease cache on — while
// the metadata plane reshards 2→4 as the stat phase starts, so the
// migration of the 2048 pre-created rows races the stat storm reading
// them. The stat phase absorbs the dip (row locks held by migration
// batches, redirects, lease recall storms); the utime phase runs after
// the migration settles and must match the fresh-4-shard row
// (recovery); the create phase runs before the reshard, matching the
// fresh-2-shard row. Results are also written as
// BENCH_reshard-under-load-*.json records.
func BenchmarkReshardUnderLoad(b *testing.B) {
	run := func(seed int64, shards, target int) (*bench.MetaratesResult, *core.Deployment, error) {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		cfg.COFS.AttrLease = 30 * time.Second
		tb := cluster.New(seed, 4, cfg)
		d := core.Deploy(tb, nil)
		t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
		mcfg := bench.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 2, FilesPerProc: 256,
			Dir: "/shared", Ops: []string{"create", "stat", "utime"},
		}
		// The hook runs on a spawned sim proc: record the error and
		// surface it on the sub-benchmark's goroutine after the run.
		var reshardErr error
		if target > 0 {
			mcfg.PhaseHook = func(p *sim.Proc, phase string) {
				if phase == "stat" && reshardErr == nil {
					reshardErr = d.Service.Reshard(p, target)
				}
			}
		}
		res := bench.Metarates(t, mcfg)
		return res, d, reshardErr
	}
	cases := []struct {
		name           string
		shards, target int
	}{
		{"storm-2to4", 2, 4},    // the measured migration
		{"fresh-4shards", 4, 0}, // recovery target
		{"fresh-2shards", 2, 0}, // pre-reshard baseline
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var res *bench.MetaratesResult
			var d *core.Deployment
			var mt bench.Meter
			for i := 0; i < b.N; i++ {
				var err error
				mt.Start()
				res, d, err = run(int64(i+1), tc.shards, tc.target)
				mt.Stop()
				if err != nil {
					b.Fatalf("mid-storm reshard: %v", err)
				}
			}
			b.ReportMetric(res.MeanMs("stat"), "vms/op-stat")
			b.ReportMetric(res.MeanMs("utime"), "vms/op-utime")
			rec := bench.Record{
				Name:     "reshard-under-load/" + tc.name,
				Shards:   tc.shards,
				VmsPerOp: res.MeanMs("stat"),
				Extra: map[string]float64{
					"vms_per_op_create": res.MeanMs("create"),
					"vms_per_op_utime":  res.MeanMs("utime"),
				},
			}
			if tc.target > 0 {
				rec.Extra["target_shards"] = float64(tc.target)
			}
			mt.Fill(&rec, res.TotalOps())
			rec.SetCounters(d.Counters())
			if err := bench.WriteRecord(rec); err != nil {
				b.Logf("bench record: %v", err)
			}
		})
	}
	// The crash variant prices the recovery path instead of the storm:
	// the same 2048-row plane reshards 2→4 with no concurrent load,
	// dies at a mid-migration step with the flush windows open, and the
	// metric is the virtual wall time of Recover — replay plus the
	// reconcile-and-resume of the interrupted migration
	// (docs/resharding.md, "Shard lifecycle & crash consistency").
	b.Run("crash-recover-2to4", func(b *testing.B) {
		// The host-cost normalizer: the rows the interrupted migration
		// and its recovery re-home (4 nodes x 512 files).
		const rows = 4 * 512
		var recoverMs float64
		var d *core.Deployment
		var mt bench.Meter
		for i := 0; i < b.N; i++ {
			mt.Start()
			cfg := params.Default()
			cfg.COFS.MetadataShards = 2
			cfg.COFS.AttrLease = 30 * time.Second
			tb := cluster.New(int64(i+1), 4, cfg)
			d = core.Deploy(tb, nil)
			// Metarates phases unlink what they create, so the plane is
			// populated directly: the same 2048 rows, left in place for
			// the migration to move.
			tb.Env.Spawn("populate", func(p *sim.Proc) {
				ctx := cluster.Ctx(0, 1)
				if err := d.Mounts[0].MkdirAll(p, ctx, "/shared", 0777); err != nil {
					panic(err)
				}
			})
			tb.Run()
			for n := 0; n < 4; n++ {
				node := n
				tb.Env.Spawn(fmt.Sprintf("populate-%d", node), func(p *sim.Proc) {
					m := d.Mounts[node]
					ctx := cluster.Ctx(node, 1)
					for j := 0; j < 512; j++ {
						f, err := m.Create(p, ctx, fmt.Sprintf("/shared/r%d-f%04d", node, j), 0644)
						if err != nil {
							panic(err)
						}
						f.Close(p)
					}
				})
			}
			tb.Run()
			d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
				return seq == 5
			})
			var reshardErr error
			var recovered time.Duration
			tb.Env.Spawn("reshard-crash", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, 4); err != core.ErrReshardInterrupted {
					reshardErr = fmt.Errorf("reshard returned %v, want interrupt", err)
					return
				}
				d.Service.Crash()
				start := tb.Env.Now()
				d.Service.Recover(p)
				recovered = tb.Env.Now() - start
				d.Service.AdoptIDCounter()
			})
			tb.Run()
			if reshardErr != nil {
				b.Fatal(reshardErr)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				b.Fatalf("invariants after recovery: %v", err)
			}
			recoverMs = float64(recovered) / float64(time.Millisecond)
			mt.Stop()
		}
		b.ReportMetric(recoverMs, "vms/recovery")
		rec := bench.Record{
			Name:     "reshard-under-load/crash-recover-2to4",
			Shards:   2,
			VmsPerOp: recoverMs,
			Extra: map[string]float64{
				"recovery_vms":  recoverMs,
				"target_shards": 4,
			},
		}
		mt.Fill(&rec, rows)
		rec.SetCounters(d.Counters())
		if err := bench.WriteRecord(rec); err != nil {
			b.Logf("bench record: %v", err)
		}
	})
}

// BenchmarkFailover measures a full standby promotion: replicated
// workload, primary crash, promote, first create on the new service.
func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := cluster.New(int64(i+1), 2, params.Default())
		d := core.Deploy(tb, nil)
		sb := core.DeployStandby(tb, d, time.Millisecond)
		t := bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}
		_ = bench.Metarates(t, bench.MetaratesConfig{
			Nodes: 2, ProcsPerNode: 1, FilesPerProc: 128,
			Dir: "/shared", Ops: []string{"create"},
		})
		d.Service.Crash()
		sb.Promote(d)
	}
}
