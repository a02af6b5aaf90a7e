// Command mdtest runs the mdtest-style tree metadata benchmark (see
// internal/bench) against the simulated stacks:
//
//	mdtest -fs gpfs -nodes 8 -depth 2 -branch 4 -files 256
//	mdtest -fs cofs -nodes 8 -shared -shift
//	mdtest -fs cofs -shards 2 -reshard-at file-create -reshard-to 4
//
// It reports per-phase operation rates, mdtest-style; with -reshard-at
// the COFS metadata plane reshards mid-phase while the ranks run. The
// deployment, observability and profiling flags are internal/cli's.
package main

import (
	"flag"
	"fmt"

	"cofs/internal/bench"
	"cofs/internal/cli"
)

func main() {
	var (
		fs     = flag.String("fs", "cofs", "stack: gpfs | cofs")
		procs  = flag.Int("procs", 1, "ranks per node")
		depth  = flag.Int("depth", 2, "tree depth")
		branch = flag.Int("branch", 4, "tree fanout per level")
		files  = flag.Int("files", 128, "files per rank")
		shared = flag.Bool("shared", false, "all ranks share one tree (contended mode)")
		shift  = flag.Bool("shift", false, "rank r stats rank r+1's files (cross-node attributes)")

		reshardAt = flag.String("reshard-at", "", "cofs: reshard mid-run, when this phase starts (e.g. file-create)")
		reshardTo = flag.Int("reshard-to", 0, "cofs: target shard count of the mid-run reshard")
	)
	common := cli.Register(flag.CommandLine, 42)
	flag.Parse()
	run := common.Start(*fs, "reshard-at", "reshard-to")

	nodes := common.Nodes
	res := bench.MDTest(run.Target(), bench.MDTestConfig{
		Nodes: nodes, ProcsPerNode: *procs, Depth: *depth, Branch: *branch, FilesPerRank: *files,
		Shared: *shared, StatShift: *shift,
		PhaseHook: run.ReshardHook(*reshardAt, *reshardTo),
	})
	mode := "unique trees"
	if *shared {
		mode = "shared tree"
	}
	fmt.Printf("mdtest on %s: %d ranks (%d nodes x %d), depth %d, branch %d, %d files/rank, %s, shift=%v\n\n",
		*fs, nodes**procs, nodes, *procs, *depth, *branch, *files, mode, *shift)
	fmt.Print(res.Report())
	fmt.Println()
	run.Finish(0)
}
