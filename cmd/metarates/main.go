// Command metarates runs the metarates benchmark (UCAR/NCAR — parallel
// metadata transaction rates) against the simulated testbed, on either
// the bare GPFS-like file system or COFS over it. With -reshard-at the
// COFS metadata plane reshards to -reshard-to shards mid-run, while the
// named operation's storm is executing.
//
// Usage:
//
//	metarates [-fs gpfs|cofs] [-nodes N] [-shards M] [-procs P] [-files F] [-dir D] [-ops list] [-seed S]
//	          [-reshard-at op -reshard-to M2]
//
// The deployment, observability and profiling flags are internal/cli's.
package main

import (
	"flag"
	"fmt"
	"strings"

	"cofs/internal/bench"
	"cofs/internal/cli"
)

func main() {
	fsKind := flag.String("fs", "gpfs", "file system under test: gpfs or cofs")
	procs := flag.Int("procs", 1, "processes per node")
	files := flag.Int("files", 256, "files per process")
	dir := flag.String("dir", "/shared", "shared directory")
	ops := flag.String("ops", strings.Join(bench.DefaultOps, ","), "comma-separated operations")
	reshardAt := flag.String("reshard-at", "", "cofs: reshard the metadata plane mid-run, when this operation's phase starts")
	reshardTo := flag.Int("reshard-to", 0, "cofs: target shard count of the mid-run reshard")
	common := cli.Register(flag.CommandLine, 1)
	flag.Parse()
	run := common.Start(*fsKind, "reshard-at", "reshard-to")

	res := bench.Metarates(run.Target(), bench.MetaratesConfig{
		Nodes:        common.Nodes,
		ProcsPerNode: *procs,
		FilesPerProc: *files,
		Dir:          *dir,
		Ops:          strings.Split(*ops, ","),
		PhaseHook:    run.ReshardHook(*reshardAt, *reshardTo),
	})

	fmt.Printf("metarates: fs=%s nodes=%d procs/node=%d files/proc=%d dir=%s\n",
		*fsKind, common.Nodes, *procs, *files, *dir)
	fmt.Printf("%-10s%14s%14s%14s%16s\n", "op", "mean (ms)", "p50 (ms)", "max (ms)", "aggregate op/s")
	for _, op := range strings.Split(*ops, ",") {
		s, ok := res.PerOp[op]
		if !ok || s.N() == 0 {
			continue
		}
		rate := float64(s.N()) / res.PhaseTime[op].Seconds()
		fmt.Printf("%-10s%14.3f%14.3f%14.3f%16.0f\n", op,
			s.MeanMs(),
			float64(s.Percentile(50))/1e6,
			float64(s.Max())/1e6,
			rate)
	}
	run.Finish(0)
}
