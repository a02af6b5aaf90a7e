// Package cli binds the flags cofsctl, mdtest and metarates share: the
// deployment (-nodes -shards -store -seed -attr-lease -rpc-batch
// -standby-reads), observability (-trace -metrics -slowlog) and host
// profiling (-cpuprofile -memprofile). It turns them into a
// params.Config, deploys the stack, and prints the post-run report;
// each tool declares only its workload flags.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cofs/internal/bench"
	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/obs"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// Flags holds the shared flags of one tool invocation.
type Flags struct {
	Nodes        int
	Shards       int
	Store        string
	Seed         int64
	AttrLease    time.Duration
	RPCBatch     bool
	StandbyReads bool
	TraceOut     string
	Metrics      bool
	Slowlog      time.Duration
	CPUProfile   string
	MemProfile   string

	set *flag.FlagSet
}

// cofsOnly names the shared flags that only configure a COFS
// deployment, so setting one on the gpfs stack is a usage error.
var cofsOnly = []string{"shards", "store", "attr-lease", "rpc-batch", "standby-reads", "trace", "metrics", "slowlog"}

// Register binds the shared flags on set; seed is the tool's default
// -seed.
func Register(set *flag.FlagSet, seed int64) *Flags {
	f := &Flags{set: set}
	set.IntVar(&f.Nodes, "nodes", 4, "number of compute nodes")
	set.IntVar(&f.Shards, "shards", 1, "cofs: metadata service shards")
	set.StringVar(&f.Store, "store", "", "cofs: metadata store backend (default "+store.DefaultName+"; see docs/backends.md)")
	set.Int64Var(&f.Seed, "seed", seed, "simulation seed")
	set.DurationVar(&f.AttrLease, "attr-lease", 0, "cofs: client cache lease term (0 disables the coherent cache)")
	set.BoolVar(&f.RPCBatch, "rpc-batch", false, "cofs: coalesce concurrent RPCs to the same shard into one round trip")
	set.BoolVar(&f.StandbyReads, "standby-reads", false, "cofs: serve reads from per-shard hot standbys when provably fresh (docs/replication.md)")
	set.StringVar(&f.TraceOut, "trace", "", "cofs: write a Chrome trace-event JSON of the run to this file (open in Perfetto; docs/observability.md)")
	set.BoolVar(&f.Metrics, "metrics", false, "cofs: collect and print per-(op, shard) latency histograms and per-shard rates")
	set.DurationVar(&f.Slowlog, "slowlog", 0, "cofs: print the slowest operation spans at or above this virtual-time threshold (implies tracing)")
	set.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile to this file")
	set.StringVar(&f.MemProfile, "memprofile", "", "write a host allocation profile to this file")
	return f
}

// Config validates the parsed flags for stack ("gpfs" or "cofs") and
// returns the testbed configuration. extra names the tool's own
// cofs-only flags. On gpfs, any set cofs-only flag is an error, as is
// an unknown -store anywhere.
func (f *Flags) Config(stack string, extra ...string) (params.Config, error) {
	cfg := params.Default()
	switch stack {
	case "cofs":
	case "gpfs":
		var set []string
		f.set.Visit(func(fl *flag.Flag) {
			if slices.Contains(cofsOnly, fl.Name) || slices.Contains(extra, fl.Name) {
				set = append(set, "-"+fl.Name)
			}
		})
		if len(set) > 0 {
			return cfg, fmt.Errorf("%s: cofs-only, not valid with -fs gpfs", strings.Join(set, " "))
		}
	default:
		return cfg, fmt.Errorf("unknown -fs %q (gpfs or cofs)", stack)
	}
	if _, ok := store.Lookup(f.Store); !ok && f.Store != "" {
		return cfg, fmt.Errorf("unknown -store %q (registered: %s)", f.Store, strings.Join(store.Names(), ", "))
	}
	cfg.COFS.MetadataStore = f.Store
	cfg.COFS.MetadataShards = f.Shards
	cfg.COFS.AttrLease = f.AttrLease
	cfg.COFS.RPCBatch = f.RPCBatch
	cfg.COFS.StandbyReads = f.StandbyReads
	cfg.COFS.Trace = f.TraceOut != "" || f.Slowlog > 0
	cfg.COFS.Metrics = f.Metrics
	return cfg, nil
}

// Run is one deployed testbed: the bare file system, with COFS over it
// unless the stack is gpfs.
type Run struct {
	TB *cluster.Testbed
	D  *core.Deployment // nil on the gpfs stack

	f           *Flags
	tool        string
	stopProfile func() error
}

// Start validates the flags (a usage error exits 2), starts the host
// profiles and deploys stack: COFS, plus the read-serving standby with
// -standby-reads.
func (f *Flags) Start(stack string, extra ...string) *Run {
	r := &Run{f: f, tool: filepath.Base(f.set.Name())}
	cfg, err := f.Config(stack, extra...)
	if err != nil {
		r.usage(err.Error())
	}
	if r.stopProfile, err = startProfile(f.CPUProfile, f.MemProfile); err != nil {
		r.usage("profile: " + err.Error())
	}
	r.TB = cluster.New(f.Seed, f.Nodes, cfg)
	if stack == "cofs" {
		r.D = core.Deploy(r.TB, nil)
		if f.StandbyReads {
			core.DeployStandby(r.TB, r.D, 5*time.Millisecond)
			r.TB.Run()
		}
	}
	return r
}

func (r *Run) usage(msg string) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", r.tool, msg)
	os.Exit(2)
}

// Target is the stack's mounts, for the bench harnesses.
func (r *Run) Target() bench.Target {
	t := bench.Target{Env: r.TB.Env, Mounts: r.TB.Mounts, Ctx: cluster.Ctx}
	if r.D != nil {
		t.Mounts = r.D.Mounts
	}
	return t
}

// ReshardHook is the bench PhaseHook behind mdtest's and metarates'
// -reshard-at/-reshard-to: nil without -reshard-at, else a hook that
// reshards the plane to `to` shards when phase `at` starts, reporting
// a failed reshard to stderr. Start has already rejected both flags on
// gpfs (the tools pass them as extra); a missing target exits 2.
func (r *Run) ReshardHook(at string, to int) func(p *sim.Proc, phase string) {
	if at == "" {
		return nil
	}
	if to < 1 {
		r.usage("-reshard-at needs -reshard-to")
	}
	return func(p *sim.Proc, phase string) {
		if phase != at {
			return
		}
		if err := r.D.Service.Reshard(p, to); err != nil {
			fmt.Fprintf(os.Stderr, "%s: mid-run reshard: %v\n", r.tool, err)
		}
	}
}

// Report writes the post-run output: the shard layout after a reshard,
// the per-layer counters with the store name, the latency histograms
// and rates (-metrics) and the slowest spans (-slowlog); it writes the
// -trace file and ends with the virtual time.
func (r *Run) Report(w io.Writer) error {
	if d := r.D; d != nil {
		c := d.Counters()
		if c.Get("mds.reshard-epochs") > 0 {
			fmt.Fprintf(w, "== shards after run: %d (rows per shard: %v) ==\n",
				d.Service.ServingShards(), d.Service.ShardCounts())
		}
		fmt.Fprintf(w, "== per-layer counters (store=%s) ==\n", d.Service.StoreName())
		c.Fprint(w, "  ")
		if m := d.Metrics(); m != nil {
			fmt.Fprintln(w, "== latency histograms (virtual time) ==")
			m.Fprint(w, "  ")
			fmt.Fprintln(w, "== per-shard rates (sliding window) ==")
			m.FprintRates(w, "  ", r.TB.Env.Now())
		}
		if tr := d.Tracer(); tr != nil {
			if r.f.Slowlog > 0 {
				fmt.Fprintf(w, "== slowest spans (threshold %v) ==\n", r.f.Slowlog)
				tr.FprintSlow(w, r.f.Slowlog, 16)
			}
			if r.f.TraceOut != "" {
				if err := writeTrace(tr, r.f.TraceOut); err != nil {
					return err
				}
				fmt.Fprintf(w, "trace: %d spans -> %s\n", tr.Spans, r.f.TraceOut)
			}
		}
	}
	fmt.Fprintf(w, "virtual time: %v\n", r.TB.Env.Now())
	return nil
}

// writeTrace exports tr as Chrome trace-event JSON to path.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// Finish prints the report to stdout, stops the host profiles and
// exits with code — or with 1 if the report failed. A profile write
// error is reported but does not change the exit status of a run that
// succeeded.
func (r *Run) Finish(code int) {
	if err := r.Report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.tool, err)
		code = 1
	}
	if err := r.stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: profile: %v\n", r.tool, err)
	}
	os.Exit(code)
}
