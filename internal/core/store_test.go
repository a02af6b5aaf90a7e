package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/experiments"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// These tests pin the store-provider seam (internal/store,
// docs/backends.md) the way the other deployment knobs are pinned:
// the default backend charges exactly what the pre-registry build
// charged, misconfiguration fails fast, and the second backend
// actually deploys and serves.

// storeWorkload is the mixed mutate/stat/readdir workload the
// cost-identity comparisons run (same shape as the dormant-reshard
// pin, so a drift in either knob shows up the same way).
func storeWorkload(t *testing.T, backend string, shards int) (time.Duration, int64) {
	t.Helper()
	cfg := params.Default()
	cfg.COFS.MetadataShards = shards
	cfg.COFS.MetadataStore = backend
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
		if err := d.Service.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	return tb.Env.Now(), tb.Net.Messages
}

// TestStoreDefaultCostIdentical pins that deploying through the
// provider registry is free: naming "mdb" explicitly must land on
// exactly the same virtual clock and message count as the default
// empty knob — at one shard and at four.
func TestStoreDefaultCostIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			defNow, defMsgs := storeWorkload(t, "", shards)
			mdbNow, mdbMsgs := storeWorkload(t, "mdb", shards)
			if defNow != mdbNow || defMsgs != mdbMsgs {
				t.Fatalf("registry routing is not free: default (%v, %d msgs) vs mdb (%v, %d msgs)",
					defNow, defMsgs, mdbNow, mdbMsgs)
			}
		})
	}
}

// TestStoreAbsoluteCostPin holds the default backend to the
// pre-interface baseline figure itself, not just to a sibling run:
// the BenchmarkStatStorm nocache-1shards storm (seed 1) must
// reproduce the vms/op recorded in bench/baseline.json before the
// provider registry existed. If this moves, the refactor changed the
// simulation, not just the wiring.
func TestStoreAbsoluteCostPin(t *testing.T) {
	const want = 0.525928 // bench/baseline.json stat-storm/nocache-1shards
	sum, _ := experiments.ClientCacheStorm(1, params.Default())
	if sum.N() != 6144 {
		t.Fatalf("storm measured %d stats, baseline measured 6144", sum.N())
	}
	if sum.MeanMs() != want {
		t.Fatalf("default store drifted from the pre-interface baseline: %v vms/op, want %v", sum.MeanMs(), want)
	}
}

// TestStoreMDLSServes deploys the log-structured backend and runs the
// same workload: it must serve correctly (invariants hold), report its
// name, and — being structurally different — not match the default's
// clock.
func TestStoreMDLSServes(t *testing.T) {
	mdbNow, _ := storeWorkload(t, "mdb", 2)
	mdlsNow, _ := storeWorkload(t, "mdls", 2)
	if mdlsNow == mdbNow {
		t.Fatalf("mdls has the same cost profile as mdb (%v): the second backend is not a second point", mdlsNow)
	}
}

// TestStoreNameReported pins the header plumbing the tools print.
func TestStoreNameReported(t *testing.T) {
	for _, backend := range []struct{ knob, want string }{
		{"", "mdb"}, {"mdb", "mdb"}, {"mdls", "mdls"},
	} {
		cfg := params.Default()
		cfg.COFS.MetadataStore = backend.knob
		tb := cluster.New(7, 1, cfg)
		d := core.Deploy(tb, nil)
		tb.Run()
		if got := d.Service.StoreName(); got != backend.want {
			t.Fatalf("StoreName with knob %q = %q, want %q", backend.knob, got, backend.want)
		}
	}
}

// TestStoreUnknownFailsFast: a typoed backend name must refuse to
// deploy, and the error must list what is registered.
func TestStoreUnknownFailsFast(t *testing.T) {
	if _, err := store.Open("bogus", nil, nil, store.Options{}); err == nil {
		t.Fatal("store.Open(bogus) succeeded")
	} else {
		for _, name := range []string{"mdb", "mdls", "bogus"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not mention %q", err, name)
			}
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deploying an unknown backend did not fail")
		}
		if !strings.Contains(fmt.Sprint(r), "registered") {
			t.Fatalf("deploy failure %v does not list registered backends", r)
		}
	}()
	cfg := params.Default()
	cfg.COFS.MetadataStore = "bogus"
	tb := cluster.New(7, 1, cfg)
	core.Deploy(tb, nil)
}
