package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// workload is one set of inputs the benchmark drives through the
// mounts. The generator derives every input from the seed when the
// workload is built; prepare and measure then run on a fresh world each
// repetition.
type workload interface {
	deployment() deployment
	// prepare pre-populates a fresh world; it counts toward setup_s.
	prepare(w *world) error
	// measure runs the measured phases and returns their virtual time.
	measure(w *world) (time.Duration, error)
	// check adds workload-specific correctness checks to the gate.
	check(w *world) error
	// extras reports the metrics only this workload has, from the
	// samples of one or more repetitions.
	extras(rec *recorder) []metric
}

// scale sizes a workload. The benchmark runs full; the self-tests run
// the same generators at a fraction of it.
type scale struct {
	mdtestFiles int // files per rank
	lsEntries   int // entries in the shared directory
	lsPasses    int // ls -l passes per rank
	jobs        int // jobs per arrival rate
}

var fullScale = scale{mdtestFiles: 512, lsEntries: 2048, lsPasses: 8, jobs: 1024}

var workloadNames = []string{"mdtest-trees", "shared-ls", "batch-jobs"}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "mdtest-trees":
		return newMDTestTrees(rng, seed, sc), nil
	case "shared-ls":
		return newSharedLS(rng, seed, sc), nil
	case "batch-jobs":
		return newBatchJobs(rng, seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// salt is a seeded suffix that makes generated file names depend on the
// seed.
func salt(rng *rand.Rand) string { return fmt.Sprintf("%06x", rng.Intn(1<<24)) }

// mdtestTrees is mdtest -u -N in a closed loop: 16 nodes x 4 ranks, each
// rank in a private depth-1, branch-4 tree, phases tree-create,
// file-create, file-stat of the next rank's files, file-remove and
// tree-remove, with a barrier between phases. 4 metadata shards, client
// cache off: the namespace-mutation path (cross-shard 2PC, row locks,
// WAL group commit, pfs create/unlink) does the work. 64 x 512 files
// overflow the per-node pfs caches (1024 files, 48 tokens).
type mdtestTrees struct {
	dep     deployment
	perNode int
	// dirs[r] is rank r's tree, root first; files[r] its file paths,
	// spread round-robin over the leaves.
	dirs, files [][]string
}

func newMDTestTrees(rng *rand.Rand, seed int64, sc scale) *mdtestTrees {
	const branch = 4
	t := &mdtestTrees{dep: deployment{seed: seed, nodes: 16, shards: 4}, perNode: 4}
	for r := 0; r < t.dep.nodes*t.perNode; r++ {
		// Directory names are fixed, as in mdtest: a directory's name
		// picks its shard, and a shard balance redrawn per seed would
		// swamp the comparison between runs.
		root := fmt.Sprintf("/mdtest/rank%02d", r)
		dirs := []string{root}
		for b := 0; b < branch; b++ {
			dirs = append(dirs, fmt.Sprintf("%s/d0.%d", root, b))
		}
		files := make([]string, sc.mdtestFiles)
		for i := range files {
			files[i] = fmt.Sprintf("%s/f.%02d.%05d.%s", dirs[1+i%branch], r, i, salt(rng))
		}
		t.dirs = append(t.dirs, dirs)
		t.files = append(t.files, files)
	}
	return t
}

func (t *mdtestTrees) deployment() deployment { return t.dep }

func (t *mdtestTrees) prepare(w *world) error {
	return mkdirSetup(w, "/mdtest")
}

func (t *mdtestTrees) measure(w *world) (time.Duration, error) {
	rec := w.rec
	ranks := w.ranks(t.perNode)
	n := len(ranks)
	phases := []struct {
		name string
		fn   func(p *sim.Proc, r rank)
	}{
		{"tree-create", func(p *sim.Proc, r rank) {
			for _, d := range t.dirs[r.id] {
				if rec.op(p, "mkdir", func() error { return r.m.Mkdir(p, r.ctx, d, 0777) }) {
					rec.dirsMade++
				}
			}
		}},
		{"file-create", func(p *sim.Proc, r rank) {
			for _, path := range t.files[r.id] {
				if rec.op(p, "create", func() error { return createClose(p, r, path) }) {
					rec.filesMade++
				}
			}
		}},
		{"file-stat", func(p *sim.Proc, r rank) {
			for _, path := range t.files[(r.id+1)%n] {
				rec.op(p, "stat", func() error {
					_, err := r.m.Stat(p, r.ctx, path)
					return err
				})
			}
		}},
		{"file-remove", func(p *sim.Proc, r rank) {
			for _, path := range t.files[r.id] {
				if rec.op(p, "unlink", func() error { return r.m.Unlink(p, r.ctx, path) }) {
					rec.filesGone++
				}
			}
		}},
		{"tree-remove", func(p *sim.Proc, r rank) {
			dirs := t.dirs[r.id]
			for i := len(dirs) - 1; i >= 0; i-- {
				if rec.op(p, "rmdir", func() error { return r.m.Rmdir(p, r.ctx, dirs[i]) }) {
					rec.dirsGone++
				}
			}
		}},
	}
	var total time.Duration
	for _, ph := range phases {
		d, err := w.phase(ph.name, ranks, ph.fn)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (t *mdtestTrees) check(*world) error        { return nil }
func (t *mdtestTrees) extras(*recorder) []metric { return nil }

// sharedLS is `ls -l` over one shared directory in a closed loop: 8
// nodes x 2 ranks first create the directory's 2048 entries (each rank
// its own 1/16), then every rank runs passes of Readdir, a stat of
// every entry and a utime of its own slice. 2 shards with 30 s
// attribute leases: the read path (lease-cache hits, ReaddirPlus, lease
// recalls on every utime). The directory must stay below the 4096-entry
// AttrCacheEntries; past it every stat misses the cache.
type sharedLS struct {
	dep             deployment
	perNode, passes int
	paths           []string
}

const sharedDir = "/shared"

func newSharedLS(rng *rand.Rand, seed int64, sc scale) *sharedLS {
	s := &sharedLS{
		dep:     deployment{seed: seed, nodes: 8, shards: 2, lease: 30 * time.Second},
		perNode: 2, passes: sc.lsPasses,
	}
	for i := 0; i < sc.lsEntries; i++ {
		s.paths = append(s.paths, fmt.Sprintf("%s/e%05d.%s", sharedDir, i, salt(rng)))
	}
	return s
}

func (s *sharedLS) deployment() deployment { return s.dep }

func (s *sharedLS) prepare(w *world) error { return mkdirSetup(w, sharedDir) }

func (s *sharedLS) measure(w *world) (time.Duration, error) {
	rec := w.rec
	ranks := w.ranks(s.perNode)
	n := len(ranks)
	create, err := w.phase("populate", ranks, func(p *sim.Proc, r rank) {
		for i := r.id; i < len(s.paths); i += n {
			if rec.op(p, "create", func() error { return createClose(p, r, s.paths[i]) }) {
				rec.filesMade++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	ls, err := w.phase("ls", ranks, func(p *sim.Proc, r rank) {
		for pass := 0; pass < s.passes; pass++ {
			var ents []vfs.DirEntry
			rec.op(p, "readdir", func() error {
				var err error
				ents, err = r.m.Readdir(p, r.ctx, sharedDir)
				if err == nil && len(ents) != len(s.paths) {
					err = fmt.Errorf("ls %s: %d entries, want %d", sharedDir, len(ents), len(s.paths))
				}
				return err
			})
			for _, e := range ents {
				path := sharedDir + "/" + e.Name
				rec.op(p, "stat", func() error {
					_, err := r.m.Stat(p, r.ctx, path)
					return err
				})
			}
			for i := r.id; i < len(s.paths); i += n {
				rec.op(p, "utime", func() error {
					_, err := r.m.Utime(p, r.ctx, s.paths[i])
					return err
				})
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return create + ls, nil
}

// check verifies that every still-leased cache entry matches the plane.
func (s *sharedLS) check(w *world) error {
	return w.d.CheckCacheCoherence(w.tb.Env.Now())
}

func (s *sharedLS) extras(rec *recorder) []metric {
	return []metric{
		latency("readdir_p50_vms", rec.lat["readdir"], 50),
		latency("readdir_p99_vms", rec.lat["readdir"], 99),
	}
}

// batchJobs is an open loop in virtual time: jobs arrive at a fixed
// rate, spread round-robin over 16 nodes. A blade runs at most two jobs
// at once (one per core); a job that arrives while both slots are busy
// waits, and that lateness counts toward its latency. Each job creates
// and writes four 64 KiB outputs into one shared directory, closes
// them, then stats them (the shape of trace.GenBatchJobs). One shard,
// cache off: the paper's deployment, with the data path (pfs writes,
// blockstore, disk, FUSE copies) on top of shared-directory creates.
type batchJobs struct {
	dep          deployment
	slots, files int
	bytes        int64
	names        [][]string
	// rate is the reference rate of the measured runs; sweep the fixed
	// rates jobs_per_vs_at_slo is chosen from, slo the latency limit on
	// job_p99_vms.
	rate  float64
	sweep []float64
	slo   time.Duration
}

const resultsDir = "/results"

func newBatchJobs(rng *rand.Rand, seed int64, sc scale) *batchJobs {
	b := &batchJobs{
		dep:   deployment{seed: seed, nodes: 16, shards: 1},
		slots: 2, files: 4, bytes: 64 << 10,
		rate: 50, sweep: []float64{25, 50, 75, 100}, slo: 500 * time.Millisecond,
	}
	for j := 0; j < sc.jobs; j++ {
		var outs []string
		for f := 0; f < b.files; f++ {
			outs = append(outs, fmt.Sprintf("%s/job%05d.%s.out%d", resultsDir, j, salt(rng), f))
		}
		b.names = append(b.names, outs)
	}
	return b
}

func (b *batchJobs) deployment() deployment { return b.dep }

func (b *batchJobs) prepare(w *world) error { return mkdirSetup(w, resultsDir) }

func (b *batchJobs) measure(w *world) (time.Duration, error) { return b.run(w, b.rate) }

func (b *batchJobs) check(*world) error { return nil }

// run drives every job through w at rate jobs per virtual second and
// returns the virtual time from the first arrival to the last job's end.
func (b *batchJobs) run(w *world, rate float64) (time.Duration, error) {
	rec := w.rec
	env := w.tb.Env
	t0 := env.Now()
	due := make([]time.Duration, len(b.names))
	for j := range due {
		due[j] = t0 + time.Duration(float64(j)/rate*float64(time.Second))
	}
	lat := make([]time.Duration, len(due))
	late := make([]time.Duration, len(due))
	ok := make([]bool, len(due))
	end := t0
	nodes := b.dep.nodes
	for node := 0; node < nodes; node++ {
		m := w.d.Mounts[node]
		next := node // this node's jobs are node, node+nodes, ...
		for slot := 0; slot < b.slots; slot++ {
			env.Spawn(fmt.Sprintf("jobs.%d.%d", node, slot), func(p *sim.Proc) {
				for next < len(due) {
					j := next
					next += nodes
					if wait := due[j] - p.Now(); wait > 0 {
						p.Sleep(wait)
					}
					late[j] = p.Now() - due[j]
					ctx := vfs.Ctx{Node: node, PID: 100 + j/nodes, UID: 1000, GID: 100}
					ok[j] = b.job(p, rec, m, ctx, b.names[j])
					lat[j] = p.Now() - due[j]
					end = max(end, p.Now())
				}
			})
		}
	}
	if err := env.Run(); err != nil {
		return 0, fmt.Errorf("batch-jobs at %g/vs: %w", rate, err)
	}
	for j := range due {
		if ok[j] {
			rec.jobs = append(rec.jobs, lat[j])
		} else {
			rec.jobsFailed++
		}
	}
	q := len(due) / 4
	rec.lateFirst = append(rec.lateFirst, meanDur(late[:q]))
	rec.lateLast = append(rec.lateLast, meanDur(late[len(late)-q:]))
	return end - t0, nil
}

// job writes and closes each output, then stats them all. It reports
// whether every call succeeded.
func (b *batchJobs) job(p *sim.Proc, rec *recorder, m *vfs.Mount, ctx vfs.Ctx, outs []string) bool {
	ok := true
	for _, path := range outs {
		var f *vfs.File
		if !rec.op(p, "create", func() error {
			var err error
			f, err = m.Create(p, ctx, path, 0644)
			return err
		}) {
			ok = false
			continue
		}
		rec.filesMade++
		ok = rec.op(p, "write", func() error {
			_, err := f.WriteAt(p, 0, b.bytes)
			return errors.Join(err, f.Close(p))
		}) && ok
	}
	for _, path := range outs {
		ok = rec.op(p, "stat", func() error {
			attr, err := m.Stat(p, ctx, path)
			if err == nil && attr.Size != b.bytes {
				err = fmt.Errorf("stat %s: size %d, want %d", path, attr.Size, b.bytes)
			}
			return err
		}) && ok
	}
	return ok
}

func (b *batchJobs) extras(rec *recorder) []metric {
	return []metric{
		latency("job_p50_vms", rec.jobs, 50),
		latency("job_p99_vms", rec.jobs, 99),
		{name: "job_lateness_last_quarter_vms", value: ms(meanDur(rec.lateLast)), unit: "vms"},
	}
}

// meets reports whether one run at a rate held the latency limit
// without a growing backlog: the last quarter of jobs waited for a slot
// no longer than the first quarter, give or take a tenth of the limit.
func (b *batchJobs) meets(rec *recorder) bool {
	return rec.jobsFailed == 0 && percentile(rec.jobs, 99) <= b.slo && meanDur(rec.lateLast) <= meanDur(rec.lateFirst)+b.slo/10
}

// runSweep runs every fixed rate on its own fresh world, each through
// the same correctness gate, and picks jobs_per_vs_at_slo: the highest
// rate that meets the limit.
func (b *batchJobs) runSweep() ([]metric, int64, int64, error) {
	var attempted, failed int64
	best := 0.0
	for _, rate := range b.sweep {
		w, err := setUp(b, false)
		if err != nil {
			return nil, 0, 0, err
		}
		if _, err := b.run(w, rate); err != nil {
			return nil, 0, 0, err
		}
		if err := gateWorld(b, w); err != nil {
			return nil, 0, 0, fmt.Errorf("batch-jobs at %g/vs: correctness gate: %w", rate, err)
		}
		rec := w.rec
		attempted += rec.attempted
		failed += rec.failed
		fmt.Printf("# batch-jobs at %g jobs/vs: job p50 %.3f vms, p99 %.3f vms (n=%d), %d jobs failed, lateness first/last quarter %.3f/%.3f vms\n",
			rate, ms(percentile(rec.jobs, 50)), ms(percentile(rec.jobs, 99)), len(rec.jobs), rec.jobsFailed, ms(meanDur(rec.lateFirst)), ms(meanDur(rec.lateLast)))
		if b.meets(rec) && rate > best {
			best = rate
		}
	}
	return []metric{{name: "jobs_per_vs_at_slo", value: best, unit: "jobs/vs"}}, attempted, failed, nil
}

// mkdirSetup creates one directory from node 0 (pre-population).
func mkdirSetup(w *world, dir string) error {
	var err error
	if rerr := w.do(func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) { err = m.Mkdir(p, ctx, dir, 0777) }); rerr != nil {
		return rerr
	}
	return err
}

// createClose is mdtest's file create: open with O_CREAT, then close.
func createClose(p *sim.Proc, r rank, path string) error {
	f, err := r.m.Create(p, r.ctx, path, 0644)
	if err != nil {
		return err
	}
	return f.Close(p)
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
