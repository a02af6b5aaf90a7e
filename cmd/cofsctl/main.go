// Command cofsctl inspects a COFS deployment: it builds a testbed, runs
// a small demonstration workload (or a caller-specified create pattern)
// and dumps the placement mapping, metadata tables and token/contention
// statistics — the observability surface an operator of the paper's
// prototype would want.
//
// Usage:
//
//	cofsctl [-nodes N] [-shards M] [-store B] [-files F] [-seed S] [-corrupt] mapping|tables|stats|fsck|reshard|all
//
// The reshard verb migrates the live plane to -reshard-to shards after
// the demo workload and runs a second workload over the migrated rows;
// the report's mds.reshard-* counters show the movement
// (docs/resharding.md). With -crash-at N
// it instead kills the plane at migration step N, recovers it, and
// reports the virtual recovery time. Every verb ends with internal/cli's
// post-run report, which also owns the deployment, observability and
// profiling flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cofs/internal/cli"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

func main() {
	files := flag.Int("files", 32, "files per node to create in the demo workload")
	corrupt := flag.Bool("corrupt", false, "fsck: damage the underlying tree first (delete one mapped file, add one stray)")
	reshardTo := flag.Int("reshard-to", 2, "reshard: target shard count")
	crashAt := flag.Int("crash-at", -1, "reshard: crash the plane at migration step N and recover (-1 runs to completion)")
	common := cli.Register(flag.CommandLine, 1)
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	switch what {
	case "mapping", "tables", "stats", "fsck", "reshard", "all":
	default:
		fmt.Fprintln(os.Stderr, "usage: cofsctl [-nodes N] [-shards M] [-store B] [-files F] [-corrupt] [-reshard-to M2] [-crash-at N] mapping|tables|stats|fsck|reshard|all")
		os.Exit(2)
	}

	run := common.Start("cofs")
	tb, d, nodes := run.TB, run.D, common.Nodes

	// Demo workload: shared dir, parallel creates, a few stats.
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := d.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/work", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	for n := 0; n < nodes; n++ {
		node := n
		tb.Env.Spawn("load", func(p *sim.Proc) {
			m := d.Mounts[node]
			ctx := cluster.Ctx(node, 1)
			for i := 0; i < *files; i++ {
				name := fmt.Sprintf("/work/f-%02d-%04d", node, i)
				f, err := m.Create(p, ctx, name, 0644)
				if err != nil {
					panic(err)
				}
				f.WriteAt(p, 0, 4096)
				f.Close(p)
				m.Stat(p, ctx, name)
			}
		})
	}
	tb.Run()

	if what == "mapping" || what == "all" {
		fmt.Println("== placement mapping (virtual id -> underlying path) ==")
		count := 0
		buckets := map[string]int{}
		d.Service.EachMapping(func(id vfs.Ino, upath string) {
			if count < 8 {
				fmt.Printf("  %6d -> %s\n", id, upath)
			}
			count++
			buckets[upath[:strings.LastIndex(upath, "/")]]++
		})
		fmt.Printf("  ... %d mappings over %d underlying directories\n", count, len(buckets))
		var names []string
		for b := range buckets {
			names = append(names, b)
		}
		sort.Strings(names)
		fmt.Println("== underlying bucket fill ==")
		for _, b := range names {
			fmt.Printf("  %-28s%5d entries\n", b, buckets[b])
		}
	}
	if what == "tables" || what == "all" {
		fmt.Println("== metadata service tables ==")
		files, dirs := 0, 0
		d.Service.EachMapping(func(id vfs.Ino, upath string) { files++ })
		tb.Env.Spawn("count", func(p *sim.Proc) {
			st, err := d.Mounts[0].StatFS(p, cluster.Ctx(0, 1))
			if err != nil {
				panic(err)
			}
			files = int(st.Files)
			dirs = int(st.Dirs)
		})
		tb.Run()
		fmt.Printf("  objects=%d dirs=%d wal-records=%d commits=%d\n",
			files, dirs, d.Service.WALLen(), d.Service.Commits())
		for i, n := range d.Service.ShardCounts() {
			fmt.Printf("  shard%02d: %d inode rows\n", i, n)
		}
	}
	if what == "reshard" {
		fmt.Printf("== online reshard: %d -> %d shards ==\n", d.Service.ServingShards(), *reshardTo)
		fmt.Printf("  rows per shard before: %v\n", d.Service.ShardCounts())
		if *crashAt >= 0 {
			// Crash injection: kill the plane at migration step N with
			// the flush windows open, then recover it — the operator's
			// view of the crash-replay contract (docs/resharding.md,
			// "Shard lifecycle & crash consistency"). No concurrent
			// load: every client would just stall against a dead plane.
			d.Service.OnReshardStep(func(seq int, at core.ReshardPoint) bool {
				return seq == *crashAt
			})
			tb.Env.Spawn("reshard-crash", func(p *sim.Proc) {
				err := d.Service.Reshard(p, *reshardTo)
				if err == nil {
					fmt.Printf("  migration finished before step %d; nothing to crash\n", *crashAt)
					return
				}
				if err != core.ErrReshardInterrupted {
					panic(fmt.Sprintf("reshard: %v", err))
				}
				fmt.Printf("  crashed at migration step %d\n", *crashAt)
				start := tb.Env.Now()
				d.Service.Crash()
				d.Service.Recover(p)
				d.Service.AdoptIDCounter()
				fmt.Printf("  recovered and resettled in %v (virtual)\n", tb.Env.Now()-start)
			})
		} else {
			tb.Env.Spawn("reshard", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, *reshardTo); err != nil {
					panic(fmt.Sprintf("reshard: %v", err))
				}
			})
			// A second workload runs concurrently with the migration, so the
			// movement happens under live traffic, redirects included.
			for n := 0; n < nodes; n++ {
				node := n
				tb.Env.Spawn("load2", func(p *sim.Proc) {
					m := d.Mounts[node]
					ctx := cluster.Ctx(node, 1)
					for i := 0; i < *files; i++ {
						name := fmt.Sprintf("/work/g-%02d-%04d", node, i)
						f, err := m.Create(p, ctx, name, 0644)
						if err != nil {
							panic(err)
						}
						f.Close(p)
						m.Stat(p, ctx, fmt.Sprintf("/work/f-%02d-%04d", node, i))
					}
				})
			}
		}
		tb.Run()
		if err := d.Service.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "cofsctl: plane invariants after reshard: %v\n", err)
			os.Exit(1)
		}
	}
	code := 0
	if what == "fsck" || what == "all" {
		fmt.Println("== fsck (service tables vs underlying file system) ==")
		if *corrupt {
			var victim, bucket string
			d.Service.EachMapping(func(id vfs.Ino, upath string) {
				if victim == "" {
					victim = upath
					bucket = upath[:strings.LastIndex(upath, "/")]
				}
			})
			tb.Env.Spawn("corrupt", func(p *sim.Proc) {
				root := vfs.Ctx{UID: 0}
				if err := tb.Mounts[0].Unlink(p, root, victim); err != nil {
					panic(err)
				}
				f, err := tb.Mounts[0].Create(p, root, bucket+"/stray-object", 0644)
				if err != nil {
					panic(err)
				}
				f.Close(p)
			})
			tb.Run()
			fmt.Printf("  (injected damage: deleted %s, added %s/stray-object)\n", victim, bucket)
		}
		var rep *core.FsckReport
		tb.Env.Spawn("fsck", func(p *sim.Proc) {
			rep = core.Fsck(p, d.Service, tb.Mounts[0])
		})
		tb.Run()
		fmt.Print(rep)
		if !rep.OK() && what == "fsck" {
			code = 1
		}
	}
	if what == "stats" || what == "all" {
		fmt.Println("== service / token statistics ==")
		s := d.Service.Stats()
		fmt.Printf("  service: requests=%d creates=%d lookups=%d getattrs=%d updates=%d removes=%d peer-rpcs=%d\n",
			s.Requests, s.Creates, s.Lookups, s.Getattrs, s.Updates, s.Removes, s.PeerCalls)
		ts := tb.FS.Tokens.Stats
		fmt.Printf("  underlying tokens: acquires=%d transfers=%d revocations=%d local-grants=%d\n",
			ts.Acquires, ts.Transfers, ts.Revocations, ts.LocalGrants)
		for i, fs := range d.FSs {
			fmt.Printf("  node%02d: serviceOps=%d underCreates=%d underOpens=%d spills=%d writeBacks=%d\n",
				i, fs.Stats.ServiceOps, fs.Stats.UnderCreates, fs.Stats.UnderOpens,
				fs.Stats.BucketSpills, fs.Stats.WriteBacks)
		}
	}
	run.Finish(code)
}
