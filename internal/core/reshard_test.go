package core_test

import (
	"fmt"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

// These tests pin the online-resharding subsystem (internal/reshard,
// core/reshard.go, docs/resharding.md) from every side the acceptance
// contract names:
//
//   - Grow and shrink move exactly the planned rows, preserve every
//     plane invariant, balance the target shards, and leave drained
//     shards empty.
//   - Under a concurrent storm with the coherent lease cache on, no
//     client ever observes a stale or missing row, at 1→2 and 2→4.
//   - The offset-swept rename-vs-migration replay proves the batch's
//     Exclusive row locks serialize a migration against a conflicting
//     two-phase mutation of the same rows at every interleaving.
//   - With Reshard never called, the dormant machinery charges nothing:
//     virtual end time and message count stay at the figures pinned
//     when routing by the static map was still a live alternative.
//   - After a reshard settles, steady-state latency matches a fresh
//     deploy at the target shard count.

// reshardRig deploys an n-node COFS at the given shard count with the
// coherent lease cache on and the kernel dcache effectively off, so
// every path walk exercises the lease-protected cache.
func reshardRig(t *testing.T, seed int64, nodes, shards int, mut func(*params.Config)) (*cluster.Testbed, *core.Deployment) {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.COFS.AttrLease = 30 * time.Second
	cfg.FUSE.EntryTimeout = time.Nanosecond
	if mut != nil {
		mut(&cfg)
	}
	tb := cluster.New(seed, nodes, cfg)
	d := core.Deploy(tb, nil)
	tb.Run()
	return tb, d
}

// buildTree creates dirs directories with files files spread over them
// from node 0 and returns every file path.
func buildTree(t *testing.T, tb *cluster.Testbed, d *core.Deployment, dirs, files int) []string {
	t.Helper()
	var paths []string
	ctx := cluster.Ctx(0, 1)
	step(tb, "build", func(p *sim.Proc) {
		m := d.Mounts[0]
		for i := 0; i < dirs; i++ {
			if err := m.Mkdir(p, ctx, fmt.Sprintf("/d%03d", i), 0777); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < files; i++ {
			path := fmt.Sprintf("/d%03d/f%04d", i%dirs, i)
			f, err := m.Create(p, ctx, path, 0644)
			if err != nil {
				t.Error(err)
				return
			}
			f.WriteAt(p, 0, 512)
			f.Close(p)
			paths = append(paths, path)
		}
	})
	return paths
}

// verifyAll stats every path from every node and fails on any missing
// or stale row.
func verifyAll(t *testing.T, tb *cluster.Testbed, d *core.Deployment, paths []string) {
	t.Helper()
	step(tb, "verify-all", func(p *sim.Proc) {
		for n, m := range d.Mounts {
			ctx := cluster.Ctx(n, 1)
			for _, path := range paths {
				attr, err := m.Stat(p, ctx, path)
				if err != nil {
					t.Errorf("node %d: stat %s after reshard: %v", n, path, err)
					return
				}
				if attr.Size != 512 {
					t.Errorf("node %d: stat %s: stale size %d", n, path, attr.Size)
					return
				}
			}
		}
	})
}

func TestReshardGrow(t *testing.T) {
	cases := []struct{ from, to int }{{1, 2}, {2, 4}, {1, 4}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			tb, d := reshardRig(t, 500+int64(tc.from*10+tc.to), 2, tc.from, nil)
			paths := buildTree(t, tb, d, 16, 128)
			step(tb, "reshard", func(p *sim.Proc) {
				if err := d.Service.Reshard(p, tc.to); err != nil {
					t.Errorf("reshard: %v", err)
				}
			})
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after grow: %v", err)
			}
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatalf("cache coherence after grow: %v", err)
			}
			counts := d.Service.ShardCounts()
			if len(counts) != tc.to {
				t.Fatalf("plane has %d shards, want %d", len(counts), tc.to)
			}
			for i, n := range counts {
				if n == 0 {
					t.Fatalf("shard %d empty after grow: %v", i, counts)
				}
			}
			rs := d.Service.ReshardStats()
			if rs.GroupsMoved == 0 || rs.Epochs < 3 {
				t.Fatalf("no migration happened: %+v", rs)
			}
			verifyAll(t, tb, d, paths)
			// The plane keeps absorbing new work with fresh ids on every
			// shard's new stride.
			ctx := cluster.Ctx(0, 1)
			step(tb, "post", func(p *sim.Proc) {
				for i := 0; i < 32; i++ {
					f, err := d.Mounts[0].Create(p, ctx, fmt.Sprintf("/d000/post%03d", i), 0644)
					if err != nil {
						t.Errorf("create after grow: %v", err)
						return
					}
					f.Close(p)
				}
			})
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after post-grow creates: %v", err)
			}
		})
	}
}

func TestReshardShrink(t *testing.T) {
	tb, d := reshardRig(t, 600, 2, 4, nil)
	paths := buildTree(t, tb, d, 16, 128)
	step(tb, "reshard", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 2); err != nil {
			t.Errorf("shrink: %v", err)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after shrink: %v", err)
	}
	counts := d.Service.ShardCounts()
	for i := 2; i < len(counts); i++ {
		if counts[i] != 0 {
			t.Fatalf("drained shard %d still holds %d rows", i, counts[i])
		}
	}
	verifyAll(t, tb, d, paths)
	// Creates under directories still work everywhere, including ones
	// whose rows were drained off shards 2 and 3.
	ctx := cluster.Ctx(1, 1)
	step(tb, "post", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			f, err := d.Mounts[1].Create(p, ctx, fmt.Sprintf("/d%03d/post", i), 0644)
			if err != nil {
				t.Errorf("create after shrink: %v", err)
				return
			}
			f.Close(p)
		}
	})
	if err := d.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-shrink creates: %v", err)
	}
}

// TestReshardUnderStorm is the acceptance battery: a create/stat/
// rename/remove storm runs on every node while the plane reshards
// mid-storm (1→2 and 2→4), with the lease cache coherent throughout.
// After the dust settles every surviving file must resolve with exact
// attributes from every node, the plane invariants and the cache
// coherence contract must hold, and the storm must actually have raced
// the migration (rows moved while requests were in flight).
func TestReshardUnderStorm(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{1, 2}, {2, 4}} {
		tc := tc
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			const nodes, filesPerNode, prebuilt = 4, 96, 64
			tb, d := reshardRig(t, 700+int64(tc.from), nodes, tc.from, nil)
			ctx0 := cluster.Ctx(0, 1)
			step(tb, "setup", func(p *sim.Proc) {
				for n := 0; n < nodes; n++ {
					if err := d.Mounts[0].Mkdir(p, ctx0, fmt.Sprintf("/work%d", n), 0777); err != nil {
						t.Error(err)
						return
					}
					// A pre-existing population per directory, so the
					// migration has real batches to move while the storm
					// reads and rewrites the same namespace.
					for i := 0; i < prebuilt; i++ {
						f, err := d.Mounts[0].Create(p, ctx0, fmt.Sprintf("/work%d/old%04d", n, i), 0644)
						if err != nil {
							t.Error(err)
							return
						}
						f.Close(p)
					}
				}
			})
			// The storm: each node creates, stats, renames and removes in
			// its own directory, with cross-node stats of node 0's files.
			for n := 0; n < nodes; n++ {
				n := n
				tb.Env.Spawn(fmt.Sprintf("storm%d", n), func(p *sim.Proc) {
					m := d.Mounts[n]
					ctx := cluster.Ctx(n, 1)
					for i := 0; i < filesPerNode; i++ {
						name := fmt.Sprintf("/work%d/f%04d", n, i)
						f, err := m.Create(p, ctx, name, 0644)
						if err != nil {
							t.Errorf("storm create %s: %v", name, err)
							return
						}
						f.Close(p)
						if _, err := m.Stat(p, ctx, name); err != nil {
							t.Errorf("storm stat %s: %v", name, err)
							return
						}
						switch i % 4 {
						case 1:
							if err := m.Rename(p, ctx, name, fmt.Sprintf("/work%d/r%04d", n, i)); err != nil {
								t.Errorf("storm rename %s: %v", name, err)
								return
							}
						case 3:
							if err := m.Unlink(p, ctx, name); err != nil {
								t.Errorf("storm unlink %s: %v", name, err)
								return
							}
						}
						if i%8 == 5 {
							// Cross-node read of another node's namespace.
							m.Stat(p, ctx, fmt.Sprintf("/work0/f%04d", i))
						}
						// Reads and removes of the pre-existing population
						// race the batches migrating it.
						if i < prebuilt {
							if i%6 == 2 {
								if err := m.Unlink(p, ctx, fmt.Sprintf("/work%d/old%04d", n, i)); err != nil {
									t.Errorf("storm unlink old%04d: %v", i, err)
									return
								}
							} else if _, err := m.Stat(p, ctx, fmt.Sprintf("/work%d/old%04d", n, i)); err != nil {
								t.Errorf("storm stat old%04d: %v", i, err)
								return
							}
						}
					}
				})
			}
			// Mid-storm, the plane reshards.
			var reshardErr error
			tb.Env.SpawnAfter("reshard", 2*time.Millisecond, func(p *sim.Proc) {
				reshardErr = d.Service.Reshard(p, tc.to)
			})
			tb.Run()
			if reshardErr != nil {
				t.Fatalf("mid-storm reshard: %v", reshardErr)
			}
			if err := d.Service.CheckInvariants(); err != nil {
				t.Fatalf("invariants after storm+reshard: %v", err)
			}
			if err := d.CheckCacheCoherence(tb.Env.Now()); err != nil {
				t.Fatalf("cache coherence after storm+reshard: %v", err)
			}
			rs := d.Service.ReshardStats()
			if rs.GroupsMoved == 0 {
				t.Fatal("storm reshard moved nothing: trigger fired after the storm?")
			}
			// Every file the storm left behind must resolve from every
			// node; renamed names must resolve, removed ones must not.
			step(tb, "verify", func(p *sim.Proc) {
				for n := 0; n < nodes; n++ {
					m := d.Mounts[nodes-1-n]
					ctx := cluster.Ctx(nodes-1-n, 1)
					for i := 0; i < prebuilt; i++ {
						name := fmt.Sprintf("/work%d/old%04d", n, i)
						if i%6 == 2 {
							if _, err := m.Stat(p, ctx, name); err != vfs.ErrNotExist {
								t.Errorf("removed %s still resolves: %v", name, err)
							}
						} else if _, err := m.Stat(p, ctx, name); err != nil {
							t.Errorf("missing migrated row %s: %v", name, err)
							return
						}
					}
					for i := 0; i < filesPerNode; i++ {
						name := fmt.Sprintf("/work%d/f%04d", n, i)
						switch i % 4 {
						case 1:
							name = fmt.Sprintf("/work%d/r%04d", n, i)
						case 3:
							if _, err := m.Stat(p, ctx, fmt.Sprintf("/work%d/f%04d", n, i)); err != vfs.ErrNotExist {
								t.Errorf("removed file still resolves: /work%d/f%04d: %v", n, i, err)
							}
							continue
						}
						if _, err := m.Stat(p, ctx, name); err != nil {
							t.Errorf("missing row after storm+reshard: %s: %v", name, err)
							return
						}
					}
				}
			})
		})
	}
}

// TestReshardVsRenameInterleaving sweeps a cross-directory rename of a
// row against the migration moving that row's groups, across the whole
// migration window: at every offset the rename must either land before
// the move (and be migrated) or after it (and run at the new owner) —
// never corrupt the plane, never lose the file.
func TestReshardVsRenameInterleaving(t *testing.T) {
	offsets := func() []time.Duration {
		var out []time.Duration
		for d := time.Duration(0); d <= 3*time.Millisecond; d += 150 * time.Microsecond {
			out = append(out, d)
		}
		return out
	}
	run := func(delta time.Duration) (invErr error, statErr error) {
		tb, d := reshardRig(t, 800, 2, 2, nil)
		ctx0, ctx1 := cluster.Ctx(0, 1), cluster.Ctx(1, 1)
		step(tb, "setup", func(p *sim.Proc) {
			for _, dir := range []string{"/a", "/b"} {
				if err := d.Mounts[0].Mkdir(p, ctx0, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			// A population large enough that the migration has real
			// batches in flight around the rename's rows.
			for i := 0; i < 96; i++ {
				f, err := d.Mounts[0].Create(p, ctx0, fmt.Sprintf("/a/f%03d", i), 0644)
				if err != nil {
					t.Fatal(err)
				}
				f.Close(p)
			}
		})
		tb.Env.Spawn("reshard", func(p *sim.Proc) {
			if err := d.Service.Reshard(p, 4); err != nil {
				t.Errorf("reshard: %v", err)
			}
		})
		tb.Env.SpawnAfter("rename", delta, func(p *sim.Proc) {
			if err := d.Mounts[1].Rename(p, ctx1, "/a/f017", "/b/moved"); err != nil {
				t.Errorf("offset %v: rename during migration: %v", delta, err)
			}
		})
		tb.Run()
		invErr = d.Service.CheckInvariants()
		step(tb, "verify", func(p *sim.Proc) {
			if _, err := d.Mounts[0].Stat(p, ctx0, "/b/moved"); err != nil {
				statErr = fmt.Errorf("renamed file lost: %v", err)
				return
			}
			if _, err := d.Mounts[0].Stat(p, ctx0, "/a/f017"); err != vfs.ErrNotExist {
				statErr = fmt.Errorf("source name survived the rename: %v", err)
			}
		})
		return invErr, statErr
	}
	for _, delta := range offsets() {
		invErr, statErr := run(delta)
		if invErr != nil {
			t.Fatalf("offset %v: migration vs rename corrupted the plane: %v", delta, invErr)
		}
		if statErr != nil {
			t.Fatalf("offset %v: %v", delta, statErr)
		}
	}
}

// TestReshardVsCreateInterleaving sweeps Reshard's start offset across
// a single-node create loop, densely covering the window where a
// create transaction has allocated its id (from the old stride, so at
// or below the migration's split) but not yet committed its row. The
// resharder freezes every shard's transaction mutex around the plan
// scan, so such a row is either visible to the plan (and migrated) or
// not yet allocated (and newborn): at no offset may a file end up on a
// shard the settled map does not assign it, which CheckInvariants and
// the per-file stats pin.
func TestReshardVsCreateInterleaving(t *testing.T) {
	const files = 40
	run := func(delta time.Duration) {
		tb, d := reshardRig(t, 850, 2, 2, nil)
		ctx := cluster.Ctx(0, 1)
		step(tb, "setup", func(p *sim.Proc) {
			if err := d.Mounts[0].Mkdir(p, ctx, "/a", 0777); err != nil {
				t.Fatal(err)
			}
		})
		tb.Env.Spawn("creates", func(p *sim.Proc) {
			for i := 0; i < files; i++ {
				f, err := d.Mounts[0].Create(p, ctx, fmt.Sprintf("/a/f%03d", i), 0644)
				if err != nil {
					t.Errorf("offset %v: create f%03d: %v", delta, i, err)
					return
				}
				f.Close(p)
			}
		})
		tb.Env.SpawnAfter("reshard", delta, func(p *sim.Proc) {
			if err := d.Service.Reshard(p, 4); err != nil {
				t.Errorf("offset %v: reshard: %v", delta, err)
			}
		})
		tb.Run()
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatalf("offset %v: stranded row: %v", delta, err)
		}
		step(tb, "verify", func(p *sim.Proc) {
			for i := 0; i < files; i++ {
				if _, err := d.Mounts[1].Stat(p, cluster.Ctx(1, 1), fmt.Sprintf("/a/f%03d", i)); err != nil {
					t.Errorf("offset %v: f%03d unreachable after reshard: %v", delta, i, err)
					return
				}
			}
		})
	}
	for delta := time.Duration(0); delta <= 3*time.Millisecond; delta += 123 * time.Microsecond {
		run(delta)
	}
}

// TestReshardDormantCostIdentical pins the bit-identical-figures
// guarantee: with Reshard never called, a workload must land on exactly
// the virtual clock and network message count it had when clients
// routed straight off the static shard map — the figures a relative
// diff against that static routing held before it was deleted — at
// one shard and at four. Any charge the dormant epoch machinery adds
// (a map fetch, a wider request header) moves these figures.
func TestReshardDormantCostIdentical(t *testing.T) {
	for _, pin := range []struct {
		shards int
		now    time.Duration
		msgs   int64
	}{
		{1, 1420867801 * time.Nanosecond, 498},
		{4, 1451436645 * time.Nanosecond, 532},
	} {
		pin := pin
		t.Run(fmt.Sprintf("%dshards", pin.shards), func(t *testing.T) {
			cfg := params.Default()
			cfg.COFS.MetadataShards = pin.shards
			tb := cluster.New(42, 2, cfg)
			d := core.Deploy(tb, nil)
			tb.Run()
			ctx := cluster.Ctx(0, 1)
			step(tb, "workload", func(p *sim.Proc) {
				m := d.Mounts[0]
				for i := 0; i < 8; i++ {
					if err := m.MkdirAll(p, ctx, fmt.Sprintf("/t/d%d", i), 0777); err != nil {
						t.Fatal(err)
					}
					f, err := m.Create(p, ctx, fmt.Sprintf("/t/d%d/f", i), 0644)
					if err != nil {
						t.Fatal(err)
					}
					f.Close(p)
					m.Stat(p, ctx, fmt.Sprintf("/t/d%d/f", i))
				}
				if err := m.Rename(p, ctx, "/t/d0/f", "/t/d1/g"); err != nil {
					t.Fatal(err)
				}
				if err := m.Unlink(p, ctx, "/t/d1/g"); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Readdir(p, ctx, "/t"); err != nil {
					t.Fatal(err)
				}
			})
			if tb.Env.Now() != pin.now || tb.Net.Messages != pin.msgs {
				t.Fatalf("dormant epoch routing is not free: (%v, %d msgs), pinned (%v, %d msgs)",
					tb.Env.Now(), tb.Net.Messages, pin.now, pin.msgs)
			}
		})
	}
}

// TestReshardSteadyStateMatchesFreshDeploy: after a 2→4 reshard
// settles, a stat storm must run at (close to) the latency of the same
// storm on a freshly deployed 4-shard plane — resharding leaves no
// permanent overhead behind.
func TestReshardSteadyStateMatchesFreshDeploy(t *testing.T) {
	storm := func(tb *cluster.Testbed, d *core.Deployment, paths []string) time.Duration {
		start := tb.Env.Now()
		for n := 0; n < 2; n++ {
			n := n
			tb.Env.Spawn(fmt.Sprintf("stat%d", n), func(p *sim.Proc) {
				ctx := cluster.Ctx(n, 1)
				for r := 0; r < 4; r++ {
					for _, path := range paths {
						if _, err := d.Mounts[n].Stat(p, ctx, path); err != nil {
							t.Errorf("stat %s: %v", path, err)
							return
						}
					}
				}
			})
		}
		tb.Run()
		return tb.Env.Now() - start
	}
	// Resharded plane: deploy at 2, grow to 4, then measure. The cache
	// is disabled so the storm measures the service plane, not lease
	// hits.
	nocache := func(cfg *params.Config) { cfg.COFS.AttrLease = 0 }
	tb1, d1 := reshardRig(t, 900, 2, 2, nocache)
	paths1 := buildTree(t, tb1, d1, 16, 256)
	step(tb1, "reshard", func(p *sim.Proc) {
		if err := d1.Service.Reshard(p, 4); err != nil {
			t.Fatalf("reshard: %v", err)
		}
	})
	resharded := storm(tb1, d1, paths1)

	tb2, d2 := reshardRig(t, 900, 2, 4, nocache)
	paths2 := buildTree(t, tb2, d2, 16, 256)
	fresh := storm(tb2, d2, paths2)

	ratio := float64(resharded) / float64(fresh)
	if ratio > 1.15 || ratio < 0.85 {
		t.Fatalf("post-reshard steady state diverges from fresh 4-shard deploy: %v vs %v (ratio %.3f)",
			resharded, fresh, ratio)
	}
}

// TestReshardRefusals pins the guard rails: no resharding mid-flight
// resharding (exercised implicitly) or with the lock layer off; and
// resharding to the current count is a no-op.
func TestReshardRefusals(t *testing.T) {
	tb, d := reshardRig(t, 1000, 1, 2, nil)
	core.UnlockForTest(d.Service) // Deploy sends the plane no traffic
	step(tb, "locked-off", func(p *sim.Proc) {
		if err := d.Service.Reshard(p, 4); err == nil {
			t.Error("reshard accepted on an unlocked plane")
		}
	})

	tb3, d3 := reshardRig(t, 1002, 1, 2, nil)
	step(tb3, "noop", func(p *sim.Proc) {
		if err := d3.Service.Reshard(p, 2); err != nil {
			t.Errorf("reshard to current count: %v", err)
		}
	})
	if rs := d3.Service.ReshardStats(); rs.Epochs != 0 {
		t.Errorf("no-op reshard installed epochs: %+v", rs)
	}

	// Two concurrent Reshards: exactly one runs, the loser is refused
	// before it can touch the plane (the latch, not Begin, decides).
	tb4, d4 := reshardRig(t, 1003, 1, 2, nil)
	buildTree(t, tb4, d4, 8, 64)
	var errA, errB error
	tb4.Env.Spawn("reshardA", func(p *sim.Proc) { errA = d4.Service.Reshard(p, 4) })
	tb4.Env.Spawn("reshardB", func(p *sim.Proc) { errB = d4.Service.Reshard(p, 8) })
	tb4.Run()
	if (errA == nil) == (errB == nil) {
		t.Fatalf("concurrent reshards: want exactly one winner, got errA=%v errB=%v", errA, errB)
	}
	if err := d4.Service.CheckInvariants(); err != nil {
		t.Fatalf("invariants after racing reshards: %v", err)
	}
	want := 4
	if errA != nil {
		want = 8
	}
	if got := d4.Service.ServingShards(); got != want {
		t.Fatalf("racing reshards settled at %d shards, winner wanted %d", got, want)
	}
}
