package experiments

import (
	"fmt"
	"io"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/stats"
)

// cofsTarget assembles a COFS-over-GPFS testbed as a bench target.
func cofsTarget(seed int64, nodes int, cfg params.Config, place core.Placement) (bench.Target, *cluster.Testbed, *core.Deployment) {
	tb := cluster.New(seed, nodes, cfg)
	d := core.Deploy(tb, place)
	return bench.Target{Env: tb.Env, Mounts: d.Mounts, Ctx: cluster.Ctx}, tb, d
}

// sweepOp measures one metarates operation over files-per-node points for
// both stacks and both node counts, returning one series per
// (stack, nodes) pair.
func sweepOp(seed int64, op string, nodeCounts, perNode []int) map[string]*stats.Series {
	out := make(map[string]*stats.Series)
	for _, nodes := range nodeCounts {
		g := &stats.Series{Label: fmt.Sprintf("gpfs %dn (ms)", nodes)}
		c := &stats.Series{Label: fmt.Sprintf("cofs %dn (ms)", nodes)}
		for _, per := range perNode {
			gt, _ := gpfsTarget(seed, nodes, params.Default())
			gres := bench.Metarates(gt, bench.MetaratesConfig{
				Nodes: nodes, ProcsPerNode: 1, FilesPerProc: per,
				Dir: "/shared", Ops: []string{op},
			})
			g.Append(float64(per), gres.MeanMs(op))

			ct, _, _ := cofsTarget(seed, nodes, params.Default(), nil)
			cres := bench.Metarates(ct, bench.MetaratesConfig{
				Nodes: nodes, ProcsPerNode: 1, FilesPerProc: per,
				Dir: "/shared", Ops: []string{op},
			})
			c.Append(float64(per), cres.MeanMs(op))
		}
		out["gpfs"+fmt.Sprint(nodes)] = g
		out["cofs"+fmt.Sprint(nodes)] = c
	}
	return out
}

// Fig4Points is the files-per-node sweep used by Fig. 4/5 drivers (the
// paper sweeps 32..8192).
var Fig4Points = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Fig4 reproduces "Create time (pure GPFS vs. COFS over GPFS)".
func Fig4(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Fig. 4: create time, pure GPFS vs COFS over GPFS (shared dir) ==")
	s := sweepOp(seed, "create", []int{4, 8}, Fig4Points)
	fmt.Fprint(w, stats.Table("files per node", s["gpfs4"], s["gpfs8"], s["cofs4"], s["cofs8"]))
	fmt.Fprintln(w)
}

// Fig5 reproduces "Stat time (pure GPFS vs. COFS over GPFS)".
func Fig5(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Fig. 5: stat time, pure GPFS vs COFS over GPFS (shared dir) ==")
	s := sweepOp(seed, "stat", []int{4, 8}, Fig4Points)
	fmt.Fprint(w, stats.Table("files per node", s["gpfs4"], s["gpfs8"], s["cofs4"], s["cofs8"]))
	fmt.Fprintln(w, "\n(The paper notes utime and open/close closely track stat; see fig2/fig6.)")
	fmt.Fprintln(w)
}

// Fig6 reproduces "Operation times on 64 nodes": 256 files per node in a
// shared directory on the hierarchical topology.
func Fig6(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Fig. 6: 64 nodes, 256 files per node, shared dir ==")
	ops := bench.DefaultOps
	cfgRun := func(useCOFS bool) *bench.MetaratesResult {
		if useCOFS {
			t, _, _ := cofsTarget(seed, 64, params.Default(), nil)
			return bench.Metarates(t, bench.MetaratesConfig{
				Nodes: 64, ProcsPerNode: 1, FilesPerProc: 256,
				Dir: "/shared",
			})
		}
		t, _ := gpfsTarget(seed, 64, params.Default())
		return bench.Metarates(t, bench.MetaratesConfig{
			Nodes: 64, ProcsPerNode: 1, FilesPerProc: 256,
			Dir: "/shared",
		})
	}
	g := cfgRun(false)
	c := cfgRun(true)
	fmt.Fprintf(w, "%-16s%16s%16s\n", "op", "gpfs (ms)", "cofs (ms)")
	for _, op := range ops {
		fmt.Fprintf(w, "%-16s%16.3f%16.3f\n", op, g.MeanMs(op), c.MeanMs(op))
	}
	fmt.Fprintln(w)
}

// Ablation compares placement policies on the Fig. 4 create workload (4
// nodes, 512 files per node): the paper's full policy, node-only
// hashing, no randomization level, no 512-entry cap, and the flat
// (no-virtualization) baseline.
func Ablation(w io.Writer, seed int64) {
	fmt.Fprintln(w, "== Ablation: placement policy vs create/stat latency (4 nodes, 512 files/node) ==")
	type variant struct {
		name  string
		place core.Placement
		tweak func(*params.Config)
	}
	full := params.Default()
	variants := []variant{
		{name: "paper: hash(node,parent,pid)+rand+cap", place: nil},
		{name: "no randomization level", place: nil, tweak: func(c *params.Config) { c.COFS.RandomSubdirs = 1 }},
		{name: "hash(node) only", place: core.NodeHashPlacement{Fanout: full.COFS.DirFanout}},
		{name: "no 512-entry cap", place: nil, tweak: func(c *params.Config) { c.COFS.MaxEntriesPerDir = 0 }},
		{name: "flat (no virtualization benefit)", place: core.FlatPlacement{}, tweak: func(c *params.Config) { c.COFS.MaxEntriesPerDir = 0 }},
	}
	fmt.Fprintf(w, "%-40s%14s%14s\n", "placement", "create (ms)", "stat (ms)")
	for _, v := range variants {
		cfg := params.Default()
		if v.tweak != nil {
			v.tweak(&cfg)
		}
		t, _, _ := cofsTarget(seed, 4, cfg, v.place)
		res := bench.Metarates(t, bench.MetaratesConfig{
			Nodes: 4, ProcsPerNode: 1, FilesPerProc: 512,
			Dir: "/shared", Ops: []string{"create", "stat"},
		})
		fmt.Fprintf(w, "%-40s%14.3f%14.3f\n", v.name, res.MeanMs("create"), res.MeanMs("stat"))
	}
	fmt.Fprintln(w)
}
