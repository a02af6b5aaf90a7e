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

// target builds a nodes-node testbed and returns a target over its bare
// GPFS mounts or, with useCOFS, over a COFS deployment placed by place
// (nil: the default placement), which is returned too.
func target(seed int64, nodes int, cfg params.Config, useCOFS bool, place core.Placement) (bench.Target, *core.Deployment) {
	tb := cluster.New(seed, nodes, cfg)
	t := bench.Target{Env: tb.Env, Mounts: tb.Mounts, Ctx: cluster.Ctx}
	var d *core.Deployment
	if useCOFS {
		d = core.Deploy(tb, place)
		t.Mounts = d.Mounts
	}
	return t, d
}

// metaratesMs runs one metarates configuration and returns the mean
// virtual latency of op in milliseconds.
func metaratesMs(seed int64, useCOFS bool, nodes, filesPerProc int, op string) float64 {
	t, _ := target(seed, nodes, params.Default(), useCOFS, nil)
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

// metered runs fn once per iteration, seeded with the iteration number
// from 1, and returns the last run's result and host cost.
func metered[T any](b *testing.B, fn func(seed int64) T) (T, *bench.Meter) {
	var res T
	mt := new(bench.Meter)
	for i := 0; i < b.N; i++ {
		mt.Start()
		res = fn(int64(i + 1))
		mt.Stop()
	}
	return res, mt
}

// runMs runs the sub-benchmark name over fn, reporting the last run's
// vms/op.
func runMs(b *testing.B, name string, fn func(seed int64) float64) {
	b.Run(name, func(b *testing.B) {
		ms, _ := metered(b, fn)
		reportMs(b, ms)
	})
}

// gate writes rec as a gated record (bench/baseline.json): the host
// cost mt measured over ops operations, plus the counters c if set.
func gate(b *testing.B, mt *bench.Meter, rec bench.Record, ops int, c *stats.Counters) {
	mt.Fill(&rec, ops)
	if c != nil {
		rec.SetCounters(c)
	}
	if err := bench.WriteRecord(rec); err != nil {
		b.Logf("bench record: %v", err)
	}
}

// BenchmarkFig1SingleNodeGPFS regenerates Fig. 1: single-node latency
// versus directory size on bare GPFS.
func BenchmarkFig1SingleNodeGPFS(b *testing.B) {
	for _, op := range bench.DefaultOps {
		for _, size := range []int{256, 1024, 2560} {
			runMs(b, fmt.Sprintf("%s-%dfiles", op, size), func(seed int64) float64 {
				return metaratesMs(seed, false, 1, size, op)
			})
		}
	}
}

// BenchmarkFig2ParallelGPFS regenerates Fig. 2: parallel shared-directory
// latency on bare GPFS at 4 and 8 nodes.
func BenchmarkFig2ParallelGPFS(b *testing.B) {
	for _, nodes := range []int{4, 8} {
		for _, op := range bench.DefaultOps {
			runMs(b, fmt.Sprintf("%s-%dn-1024files", op, nodes), func(seed int64) float64 {
				return metaratesMs(seed, false, nodes, 1024/nodes, op)
			})
		}
	}
}

// BenchmarkFig4Create regenerates Fig. 4: create latency, GPFS vs COFS.
func BenchmarkFig4Create(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, nodes := range []int{4, 8} {
			runMs(b, fmt.Sprintf("%s-%dn-512perNode", stack, nodes), func(seed int64) float64 {
				return metaratesMs(seed, stack == "cofs", nodes, 512, "create")
			})
		}
	}
}

// BenchmarkFig5Stat regenerates Fig. 5: stat latency, GPFS vs COFS.
func BenchmarkFig5Stat(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, nodes := range []int{4, 8} {
			runMs(b, fmt.Sprintf("%s-%dn-2048perNode", stack, nodes), func(seed int64) float64 {
				return metaratesMs(seed, stack == "cofs", nodes, 2048, "stat")
			})
		}
	}
}

// BenchmarkFig6Scale64 regenerates Fig. 6: 64 nodes on the hierarchical
// topology, 256 files per node (create and stat; utime/open track stat).
func BenchmarkFig6Scale64(b *testing.B) {
	for _, stack := range []string{"gpfs", "cofs"} {
		for _, op := range []string{"create", "stat"} {
			runMs(b, fmt.Sprintf("%s-%s", stack, op), func(seed int64) float64 {
				return metaratesMs(seed, stack == "cofs", 64, 256, op)
			})
		}
	}
}

// iorMBps runs one IOR configuration and returns (write, read) MB/s.
func iorMBps(seed int64, useCOFS bool, nodes int, size int64, shared, random bool) (float64, float64) {
	t, _ := target(seed, nodes, params.Default(), useCOFS, nil)
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
		runMs(b, pol.name, func(seed int64) float64 {
			t, _ := target(seed, 4, pol.cfg, true, pol.place)
			res := bench.Metarates(t, bench.MetaratesConfig{
				Nodes: 4, ProcsPerNode: 1, FilesPerProc: 512,
				Dir: "/shared", Ops: []string{"create"},
			})
			return res.MeanMs("create")
		})
	}
}

// BenchmarkSimKernel measures raw event throughput of the simulation
// kernel itself (not a paper artifact; a repo health metric).
func BenchmarkSimKernel(b *testing.B) {
	b.Run("create-stat-cycle", func(b *testing.B) {
		t, _ := target(1, 1, params.Default(), false, nil)
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
		runMs(b, stack+"-shared-shift", func(seed int64) float64 {
			t, _ := target(seed, 4, params.Default(), stack == "cofs", nil)
			res := bench.MDTest(t, bench.MDTestConfig{
				Nodes: 4, Depth: 2, Branch: 4, FilesPerRank: 128,
				Shared: true, StatShift: true,
			})
			return res.MeanMs("file-stat")
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
				t, _ := target(int64(i+1), 4, params.Default(), stack == "cofs", nil)
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
		runMs(b, name, func(seed int64) float64 {
			cfg := params.Default()
			cfg.COFS.MaxEntriesPerDir = cap
			cfg.COFS.RandomSubdirs = 1
			// One bucket per node, as in the experiments driver: the
			// cap is the only variable (the default policy's occasional
			// node collisions would add noise).
			t, _ := target(seed, 4, cfg, true, core.NodeHashPlacement{Fanout: 64})
			res := bench.Metarates(t, bench.MetaratesConfig{
				Nodes: 4, ProcsPerNode: 1, FilesPerProc: 2048,
				Dir: "/shared", Ops: []string{"create"},
			})
			return res.MeanMs("create")
		})
	}
}

// BenchmarkAblationFalseSharing regenerates the packed-inode ablation's
// endpoints (1 vs 32 inodes per lock unit) on the 4-node stat workload.
func BenchmarkAblationFalseSharing(b *testing.B) {
	for _, pack := range []int{1, 32} {
		runMs(b, fmt.Sprintf("inodesPerBlock-%d", pack), func(seed int64) float64 {
			cfg := params.Default()
			cfg.PFS.InodesPerBlock = pack
			t, _ := target(seed, 4, cfg, false, nil)
			res := bench.Metarates(t, bench.MetaratesConfig{
				Nodes: 4, ProcsPerNode: 1, FilesPerProc: 128,
				Dir: "/shared", Ops: []string{"stat"},
			})
			return res.MeanMs("stat")
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
		t, _ := target(seed, 16, cfg, true, nil)
		return bench.MDTest(t, bench.MDTestConfig{
			Nodes: 16, ProcsPerNode: 4, Depth: 1, Branch: 4, FilesPerRank: 128,
			Shared: false,
		})
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mdtest-create-%dshards", shards), func(b *testing.B) {
			res, mt := metered(b, func(seed int64) *bench.MDTestResult { return run(seed, shards) })
			reportMs(b, res.MeanMs("file-create"))
			b.ReportMetric(res.MeanMs("file-stat"), "vms/op-stat")
			gate(b, mt, bench.Record{
				Name: fmt.Sprintf("shard-scaling/create-%dshards", shards), Shards: shards,
				VmsPerOp: res.MeanMs("file-create"),
				Extra:    map[string]float64{"vms_per_op_stat": res.MeanMs("file-stat")},
			}, res.TotalOps(), nil)
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
		t, _ := target(seed, 64, cfg, true, nil)
		return bench.MDTest(t, bench.MDTestConfig{
			Nodes: 64, ProcsPerNode: 16, Depth: 1, Branch: 4, FilesPerRank: 1024,
			Shared: false,
			Phases: []string{"tree-create", "file-create", "file-stat"},
		})
	}
	res, mt := metered(b, run)
	reportMs(b, res.MeanMs("file-create"))
	b.ReportMetric(res.MeanMs("file-stat"), "vms/op-stat")
	gate(b, mt, bench.Record{
		Name: "million-file-storm", Shards: 8,
		VmsPerOp: res.MeanMs("file-create"),
		Extra: map[string]float64{
			"vms_per_op_stat": res.MeanMs("file-stat"),
			"files":           float64(res.PhaseOps["file-create"]),
		},
	}, res.TotalOps(), nil)
}

// BenchmarkStatStorm gates the section IV-B trigger, the `ls -l`
// storm of experiments.ClientCacheStorm (8 ranks repeatedly stat-ing a
// shared 256-file directory while each rank's utime sweep keeps
// mutations landing on the primaries), over one table of deployment
// cells:
//
//   - nocache: the paper's plane, reads on the primaries, at 1/2/4
//     shards — the reference every other cell is read against;
//   - lease: the coherent 30 s lease cache (docs/rpc.md), which must
//     show a clear vms/op reduction while recalls keep it coherent
//     (TestLeaseCacheCrossNodeCoherence pins correctness);
//   - standby: reads routed through per-shard hot standbys
//     (docs/replication.md); mds.standby-reads / mds.standby-fallbacks
//     pin how many reads the freshness gate served versus redirected;
//   - one 1-shard cell per non-default registered store backend
//     (docs/backends.md), pinning its cost envelope — a newly
//     registered backend gets its gated row without editing this table.
//
// Every cell records the stat mean, p50/p99 and the deployment
// counters as BENCH_stat-storm-<cell>.json.
func BenchmarkStatStorm(b *testing.B) {
	type cell struct {
		mode   string
		shards int
		set    func(*params.COFSParams)
	}
	paper := func(*params.COFSParams) {}
	lease := func(c *params.COFSParams) { c.AttrLease = 30 * time.Second }
	standby := func(c *params.COFSParams) { c.StandbyReads = true }
	cells := []cell{
		{"nocache", 1, paper}, {"nocache", 2, paper}, {"nocache", 4, paper},
		{"lease", 1, lease}, {"lease", 4, lease},
		{"standby", 1, standby}, {"standby", 2, standby},
	}
	for _, backend := range store.Names() {
		if backend != store.DefaultName {
			cells = append(cells, cell{backend, 1, func(c *params.COFSParams) { c.MetadataStore = backend }})
		}
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s-%dshards", c.mode, c.shards)
		b.Run(name, func(b *testing.B) {
			cfg := params.Default()
			cfg.COFS.MetadataShards = c.shards
			c.set(&cfg.COFS)
			var counters *stats.Counters
			sum, mt := metered(b, func(seed int64) (sum *stats.Summary) {
				sum, counters = experiments.ClientCacheStorm(seed, cfg)
				return sum
			})
			reportMs(b, sum.MeanMs())
			gate(b, mt, bench.Record{
				Name: "stat-storm/" + name, Shards: c.shards,
				VmsPerOp: sum.MeanMs(),
				P50Ms:    float64(sum.Percentile(50)) / float64(time.Millisecond),
				P99Ms:    float64(sum.Percentile(99)) / float64(time.Millisecond),
			}, sum.N(), counters)
		})
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
	run := func(seed int64, shards, to int) (*bench.MetaratesResult, *core.Deployment, error) {
		cfg := params.Default()
		cfg.COFS.MetadataShards = shards
		cfg.COFS.AttrLease = 30 * time.Second
		t, d := target(seed, 4, cfg, true, nil)
		mcfg := bench.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 2, FilesPerProc: 256,
			Dir: "/shared", Ops: []string{"create", "stat", "utime"},
		}
		// The hook runs on a spawned sim proc: record the error and
		// surface it on the sub-benchmark's goroutine after the run.
		var reshardErr error
		if to > 0 {
			mcfg.PhaseHook = func(p *sim.Proc, phase string) {
				if phase == "stat" && reshardErr == nil {
					reshardErr = d.Service.Reshard(p, to)
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
		b.Run(tc.name, func(b *testing.B) {
			var d *core.Deployment
			res, mt := metered(b, func(seed int64) (res *bench.MetaratesResult) {
				var err error
				if res, d, err = run(seed, tc.shards, tc.target); err != nil {
					b.Fatalf("mid-storm reshard: %v", err)
				}
				return res
			})
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
			gate(b, mt, rec, res.TotalOps(), d.Counters())
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
		var d *core.Deployment
		recoverMs, mt := metered(b, func(seed int64) float64 {
			cfg := params.Default()
			cfg.COFS.MetadataShards = 2
			cfg.COFS.AttrLease = 30 * time.Second
			var t bench.Target
			t, d = target(seed, 4, cfg, true, nil)
			// Metarates phases unlink what they create, so the plane is
			// populated directly: the same 2048 rows, left in place for
			// the migration to move.
			t.Env.Spawn("populate", func(p *sim.Proc) {
				ctx := cluster.Ctx(0, 1)
				if err := d.Mounts[0].MkdirAll(p, ctx, "/shared", 0777); err != nil {
					panic(err)
				}
			})
			t.Env.MustRun()
			for n := 0; n < 4; n++ {
				node := n
				t.Env.Spawn(fmt.Sprintf("populate-%d", node), func(p *sim.Proc) {
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
			t.Env.MustRun()
			d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
				return seq == 5
			})
			var reshardErr error
			var recovered time.Duration
			t.Env.Spawn("reshard-crash", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, 4); err != core.ErrReshardInterrupted {
					reshardErr = fmt.Errorf("reshard returned %v, want interrupt", err)
					return
				}
				d.Service.Crash()
				start := t.Env.Now()
				d.Service.Recover(p)
				recovered = t.Env.Now() - start
				d.Service.AdoptIDCounter()
			})
			t.Env.MustRun()
			if reshardErr != nil {
				b.Fatal(reshardErr)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				b.Fatalf("invariants after recovery: %v", err)
			}
			return float64(recovered) / float64(time.Millisecond)
		})
		b.ReportMetric(recoverMs, "vms/recovery")
		gate(b, mt, bench.Record{
			Name:   "reshard-under-load/crash-recover-2to4",
			Shards: 2,
			Extra: map[string]float64{
				"recovery_vms":  recoverMs,
				"target_shards": 4,
			},
		}, rows, d.Counters())
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
