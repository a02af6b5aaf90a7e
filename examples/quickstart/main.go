// Quickstart: build the simulated cluster, install COFS over the
// GPFS-like file system, and watch the virtualization layer at work —
// one shared virtual directory, many small node-private underlying
// directories.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"cofs/internal/cluster"
	"cofs/internal/core"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

func main() {
	// A 4-blade testbed with two file servers (paper section II-A),
	// plus the COFS metadata service on its own blade.
	cfg := params.Default()
	tb := cluster.New(1, 4, cfg)
	cofs := core.Deploy(tb, nil)

	// Every node creates files in the SAME virtual directory.
	tb.Env.Spawn("setup", func(p *sim.Proc) {
		if err := cofs.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/results", 0777); err != nil {
			panic(err)
		}
	})
	tb.Run()
	for n := 0; n < 4; n++ {
		node := n
		tb.Env.Spawn("worker", func(p *sim.Proc) {
			m := cofs.Mounts[node]
			ctx := cluster.Ctx(node, 1)
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("/results/out-%d-%d.dat", node, i)
				f, err := m.Create(p, ctx, name, 0644)
				if err != nil {
					panic(err)
				}
				if _, err := f.WriteAt(p, 0, 64<<10); err != nil {
					panic(err)
				}
				if err := f.Close(p); err != nil {
					panic(err)
				}
			}
		})
	}
	tb.Run()

	// The users see one flat directory...
	tb.Env.Spawn("report", func(p *sim.Proc) {
		m := cofs.Mounts[0]
		ctx := cluster.Ctx(0, 1)
		ents, err := m.Readdir(p, ctx, "/results")
		if err != nil {
			panic(err)
		}
		fmt.Printf("virtual view: /results holds %d files\n", len(ents))
		for _, e := range ents[:4] {
			attr, err := m.Stat(p, ctx, "/results/"+e.Name)
			if err != nil {
				panic(err)
			}
			upath, _ := cofs.Service.Mapping(e.Ino)
			fmt.Printf("  %-20s %6d bytes -> underlying %s\n", e.Name, attr.Size, upath)
		}
		fmt.Println("  ...")

		// ...while the underlying file system never saw the shared
		// directory at all.
		under, err := tb.Mounts[0].Readdir(p, vfs.Ctx{UID: 0}, "/o")
		if err != nil {
			panic(err)
		}
		fmt.Printf("underlying view: /o has %d hash buckets; /results does not exist down there\n", len(under))
		if _, err := tb.Mounts[0].Stat(p, vfs.Ctx{UID: 0}, "/results"); err != vfs.ErrNotExist {
			panic("virtual directory leaked into the underlying namespace")
		}
	})
	tb.Run()
	fmt.Printf("simulated time: %v; cofs service handled %d requests\n",
		tb.Env.Now(), cofs.Counters().Get("mds.requests"))
}
