package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/obs"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// deployment describes the simulated cluster a workload runs on.
type deployment struct {
	// seed seeds the simulator's random streams (FUSE crossing jitter,
	// COFS bucket choice), so a seed varies the run's timing as well as
	// its generated names and arrivals.
	seed   int64
	nodes  int
	shards int
	// lease is COFSParams.AttrLease: 0 runs with the client cache off.
	lease time.Duration
}

// world is one deployed cluster plus the recorder its measured ops
// report into.
type world struct {
	tb  *cluster.Testbed
	d   *core.Deployment
	rec *recorder
	// pfs holds the traced run's span wrappers around each node's pfs
	// client (they count the data bytes); nil otherwise.
	pfs []*spanFS
	// base is the (files, dirs) count after pre-population; from the
	// virtual instant the measured phases started.
	base [2]int64
	from time.Duration
}

// newWorld runs cluster.New and core.Deploy. With traced set it turns
// on COFS.Trace and COFS.Metrics and mounts the span wrappers: around
// each pfs client before Deploy (COFS reaches the pfs through
// tb.Mounts), and around each core.FS with the FUSE parameters Deploy
// uses.
func newWorld(dep deployment, traced bool) *world {
	cfg := params.Default()
	cfg.COFS.MetadataShards = dep.shards
	cfg.COFS.AttrLease = dep.lease
	cfg.COFS.Trace = traced
	cfg.COFS.Metrics = traced
	tb := cluster.New(dep.seed, dep.nodes, cfg)
	w := &world{tb: tb}
	if traced {
		// The deployment's tracer exists only once Deploy returns, so the
		// pfs wrappers record Deploy's install traffic into a throwaway
		// tracer and switch to the deployment's below.
		tr := obs.NewTracer()
		for i, c := range tb.Clients {
			s := newSpanFS(c, tr, "pfs")
			w.pfs = append(w.pfs, s)
			tb.Mounts[i] = vfs.NewMount(s, params.FUSEParams{})
		}
	}
	w.d = core.Deploy(tb, nil)
	if traced {
		dtr := w.d.Tracer()
		for _, s := range w.pfs {
			s.tr = dtr
		}
		for i, fs := range w.d.FSs {
			w.d.Mounts[i] = vfs.NewMount(newSpanFS(fs, dtr, "cofs"), cfg.FUSE)
		}
	}
	w.rec = newRecorder(w.d.Tracer())
	return w
}

// rank is one simulated client process of a closed-loop workload.
type rank struct {
	id  int
	m   *vfs.Mount
	ctx vfs.Ctx
}

// ranks lays perNode ranks on every node round-robin, as mpirun does:
// rank r runs on node r mod nodes.
func (w *world) ranks(perNode int) []rank {
	nodes := len(w.d.Mounts)
	out := make([]rank, nodes*perNode)
	for r := range out {
		node := r % nodes
		out[r] = rank{id: r, m: w.d.Mounts[node], ctx: cluster.Ctx(node, 1+r/nodes)}
	}
	return out
}

// phase runs fn once per rank, each as its own simulated process, and
// drains the simulation. It returns the phase's virtual time: from its
// start until the last rank finished, so background timers that fire
// later do not count.
func (w *world) phase(name string, ranks []rank, fn func(p *sim.Proc, r rank)) (time.Duration, error) {
	env := w.tb.Env
	start := env.Now()
	end := start
	for _, r := range ranks {
		r := r
		env.Spawn(fmt.Sprintf("%s.%d", name, r.id), func(p *sim.Proc) {
			fn(p, r)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if err := env.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return end - start, nil
}

// do runs fn as one simulated process on node 0 and drains the
// simulation (set-up and checks).
func (w *world) do(fn func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx)) error {
	w.tb.Env.Spawn("bench.setup", func(p *sim.Proc) { fn(p, w.d.Mounts[0], cluster.Ctx(0, 1)) })
	return w.tb.Env.Run()
}

// objects returns the plane's (files, dirs) count.
func (w *world) objects() (files, dirs int64, err error) {
	err = w.do(func(p *sim.Proc, _ *vfs.Mount, _ vfs.Ctx) {
		files, dirs = w.d.Service.CountObjects(p, w.d.FSs[0].Session())
	})
	return files, dirs, err
}

// gate is the correctness check every run passes: fsck over the plane
// and node 0's bare mount, and the plane's object count against what
// the generator created minus what it removed since pre-population.
func (w *world) gate() error {
	var rep *core.FsckReport
	if err := w.do(func(p *sim.Proc, _ *vfs.Mount, _ vfs.Ctx) {
		rep = core.Fsck(p, w.d.Service, w.tb.Mounts[0])
	}); err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %s", rep)
	}
	files, dirs, err := w.objects()
	if err != nil {
		return err
	}
	r := w.rec
	wantFiles := w.base[0] + r.filesMade - r.filesGone
	wantDirs := w.base[1] + r.dirsMade - r.dirsGone
	if files != wantFiles || dirs != wantDirs {
		return fmt.Errorf("object count: plane has %d files, %d dirs; generator expects %d, %d",
			files, dirs, wantFiles, wantDirs)
	}
	return nil
}

// recorder times the measured POSIX calls. Each call is one sample of
// its kind; with a tracer it is also one posix.<kind> span, the root
// that the layer attribution sums under. A failed call counts in
// failed and yields no sample.
type recorder struct {
	tr    *obs.Tracer
	spans map[string]string
	// lat holds each kind's latencies; mutate pools mutateKinds'.
	lat       map[string][]time.Duration
	mutate    []time.Duration
	attempted int64
	failed    int64
	// span is the virtual time of the measured phases.
	span time.Duration
	// The open loop's jobs: latencies of the jobs that completed, the
	// count that did not, and per run the mean slot wait of the first
	// and of the last quarter of jobs.
	jobs                []time.Duration
	jobsFailed          int64
	lateFirst, lateLast []time.Duration
	// The generator's ledger of objects it made and removed, for the
	// object-count check.
	filesMade, filesGone, dirsMade, dirsGone int64
}

func newRecorder(tr *obs.Tracer) *recorder {
	r := &recorder{tr: tr, spans: make(map[string]string), lat: make(map[string][]time.Duration)}
	for _, k := range opKinds {
		r.spans[k] = "posix." + k
	}
	return r
}

// opKinds are the sample kinds: one POSIX call each, except create
// (create+close in the closed loops) and write (write+close).
var opKinds = []string{"mkdir", "create", "stat", "unlink", "rmdir", "utime", "readdir", "write"}

// mutateKinds are the non-create mutations behind mutate_p99_vms.
var mutateKinds = []string{"unlink", "rmdir", "utime", "write"}

// op times fn as one sample of kind and reports whether it succeeded.
func (r *recorder) op(p *sim.Proc, kind string, fn func() error) bool {
	r.attempted++
	if r.tr != nil {
		r.tr.Begin(p, "", r.spans[kind], -1)
	}
	t0 := p.Now()
	err := fn()
	d := p.Now() - t0
	if r.tr != nil {
		r.tr.End(p)
	}
	if err != nil {
		r.failed++
		return false
	}
	r.lat[kind] = append(r.lat[kind], d)
	if slices.Contains(mutateKinds, kind) {
		r.mutate = append(r.mutate, d)
	}
	return true
}

// merge pools the samples and counts of several repetitions.
func merge(recs []*recorder) *recorder {
	out := newRecorder(nil)
	for _, r := range recs {
		for k, ds := range r.lat {
			out.lat[k] = append(out.lat[k], ds...)
		}
		out.mutate = append(out.mutate, r.mutate...)
		out.jobs = append(out.jobs, r.jobs...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.span += r.span
		out.jobsFailed += r.jobsFailed
		out.lateFirst = append(out.lateFirst, r.lateFirst...)
		out.lateLast = append(out.lateLast, r.lateLast...)
	}
	return out
}

// percentile is the nearest-rank q-th percentile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
