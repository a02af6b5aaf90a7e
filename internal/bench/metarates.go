// Package bench reimplements the paper's two benchmarks against the
// simulated stacks: metarates (UCAR/NCAR — parallel metadata transaction
// rates, section II-A) and IOR v2 (LLNL — parallel data transfer rates,
// section IV). Both run over vfs.Mount instances, so the same harness
// drives bare GPFS-like mounts and COFS mounts.
package bench

import (
	"fmt"
	"time"

	"cofs/internal/sim"
	"cofs/internal/stats"
	"cofs/internal/vfs"
)

// Target is the mounted file system under test: one mount per node plus
// the simulation environment driving them.
type Target struct {
	Env    *sim.Env
	Mounts []*vfs.Mount
	// Ctx builds the caller context for a node/process pair.
	Ctx func(node, pid int) vfs.Ctx
}

// MetaratesConfig configures one metarates run.
type MetaratesConfig struct {
	Nodes        int
	ProcsPerNode int
	FilesPerProc int
	// Dir is the shared directory all files are created in.
	Dir string
	// Ops selects the measured operations in order; the default is the
	// paper's set: create, stat, utime, open.
	Ops []string
	// PhaseHook, when non-nil, is spawned as its own simulated process
	// at the start of each measured phase, running concurrently with
	// the ranks (the phase barrier waits for it too). Mid-run triggers
	// — above all `-reshard-at`, which reshards the metadata plane
	// while the storm runs — ride it.
	PhaseHook func(p *sim.Proc, phase string)
}

// DefaultOps is the paper's operation set.
var DefaultOps = []string{"create", "stat", "utime", "open"}

// MetaratesResult holds per-operation latency summaries.
type MetaratesResult struct {
	PerOp map[string]*stats.Summary
	// Elapsed per operation phase (excludes setup/cleanup).
	PhaseTime map[string]time.Duration
}

// TotalOps sums the measured operations over all op phases.
func (r *MetaratesResult) TotalOps() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.N()
	}
	return n
}

// MeanMs returns the mean latency of op in milliseconds.
func (r *MetaratesResult) MeanMs(op string) float64 {
	s, ok := r.PerOp[op]
	if !ok {
		return 0
	}
	return s.MeanMs()
}

func fileName(dir string, rank, i int) string {
	return fmt.Sprintf("%s/metarates.%04d.%06d", dir, rank, i)
}

// Metarates runs the benchmark following the paper's procedure: the
// create phase creates all files in parallel (then deletes them); for
// each other operation the first node sequentially creates all files,
// every process then operates on its own files in parallel, and the
// first node deletes them again. All files live in a single shared
// directory.
func Metarates(t Target, cfg MetaratesConfig) *MetaratesResult {
	if cfg.Nodes > len(t.Mounts) {
		panic("bench: more nodes than mounts")
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	ops := cfg.Ops
	if len(ops) == 0 {
		ops = DefaultOps
	}
	res := &MetaratesResult{
		PerOp:     make(map[string]*stats.Summary),
		PhaseTime: make(map[string]time.Duration),
	}
	ranks := cfg.Nodes * cfg.ProcsPerNode

	// Setup: the shared directory.
	t.run(0, 0, "setup", func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) {
		if err := m.MkdirAll(p, ctx, cfg.Dir, 0777); err != nil {
			panic(err)
		}
	})

	spawnHook := func(op string) {
		if cfg.PhaseHook != nil {
			t.Env.Spawn("hook."+op, func(p *sim.Proc) { cfg.PhaseHook(p, op) })
		}
	}

	for _, op := range ops {
		sum := &stats.Summary{}
		res.PerOp[op] = sum
		start := t.Env.Now()
		if op == "create" {
			// Parallel create, then parallel delete.
			spawnHook(op)
			t.forEachRank(cfg, func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, rank int) {
				for i := 0; i < cfg.FilesPerProc; i++ {
					opStart := p.Now()
					f, err := m.Create(p, ctx, fileName(cfg.Dir, rank, i), 0644)
					if err != nil {
						panic(fmt.Sprintf("metarates create: %v", err))
					}
					if err := f.Close(p); err != nil {
						panic(err)
					}
					sum.Add(p.Now() - opStart)
				}
			})
			res.PhaseTime[op] = t.Env.Now() - start
			t.forEachRank(cfg, func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, rank int) {
				for i := 0; i < cfg.FilesPerProc; i++ {
					if err := m.Unlink(p, ctx, fileName(cfg.Dir, rank, i)); err != nil {
						panic(err)
					}
				}
			})
			continue
		}

		// Rank 0 creates every file, interleaving ranks so consecutive
		// allocations belong to different ranks (as concurrent creation
		// would produce).
		t.run(0, 0, op+"-prep", func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) {
			for i := 0; i < cfg.FilesPerProc; i++ {
				for r := 0; r < ranks; r++ {
					f, err := m.Create(p, ctx, fileName(cfg.Dir, r, i), 0644)
					if err != nil {
						panic(err)
					}
					if err := f.Close(p); err != nil {
						panic(err)
					}
				}
			}
		})

		start = t.Env.Now()
		measured := op
		spawnHook(op)
		t.forEachRank(cfg, func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, rank int) {
			for i := 0; i < cfg.FilesPerProc; i++ {
				name := fileName(cfg.Dir, rank, i)
				opStart := p.Now()
				switch measured {
				case "stat":
					if _, err := m.Stat(p, ctx, name); err != nil {
						panic(err)
					}
				case "utime":
					if _, err := m.Utime(p, ctx, name); err != nil {
						panic(err)
					}
				case "open":
					f, err := m.Open(p, ctx, name, vfs.OpenRead)
					if err != nil {
						panic(err)
					}
					if err := f.Close(p); err != nil {
						panic(err)
					}
				default:
					panic("metarates: unknown op " + measured)
				}
				sum.Add(p.Now() - opStart)
			}
		})
		res.PhaseTime[op] = t.Env.Now() - start

		// Rank 0 deletes everything.
		t.run(0, 0, op+"-cleanup", func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx) {
			for i := 0; i < cfg.FilesPerProc; i++ {
				for r := 0; r < ranks; r++ {
					if err := m.Unlink(p, ctx, fileName(cfg.Dir, r, i)); err != nil {
						panic(err)
					}
				}
			}
		})
	}
	return res
}

// run executes fn as a single process on the given node and drains the
// simulation (a barrier).
func (t Target) run(node, pid int, name string, fn func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx)) {
	t.Env.Spawn(name, func(p *sim.Proc) {
		fn(p, t.Mounts[node], t.Ctx(node, pid))
	})
	t.Env.MustRun()
}

// forEachRank runs fn concurrently for every (node, proc) pair and waits
// for all of them (a barrier).
func (t Target) forEachRank(cfg MetaratesConfig, fn func(p *sim.Proc, m *vfs.Mount, ctx vfs.Ctx, rank int)) {
	for n := 0; n < cfg.Nodes; n++ {
		for q := 0; q < cfg.ProcsPerNode; q++ {
			node, pid := n, q
			rank := n*cfg.ProcsPerNode + q
			t.Env.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
				fn(p, t.Mounts[node], t.Ctx(node, pid+1), rank)
			})
		}
	}
	t.Env.MustRun()
}
