package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// counts are the program's own counters that the per-layer ratios read,
// snapshotted around the measured phases.
type counts struct {
	calls, roundtrips, peerCalls     int64
	hits, misses, recalls            int64
	lockAcquires, lockConflicts      int64
	crossings                        int64
	tokenRevocations, serverMetaRPCs int64
	commits, syncs                   int64
	dataBytes                        int64
}

func snapshot(w *world) counts {
	c := w.d.Counters()
	out := counts{
		calls:          c.Get("rpc.client.calls"),
		roundtrips:     c.Get("rpc.client.roundtrips"),
		peerCalls:      c.Get("rpc.peer.calls"),
		hits:           c.Get("cache.attr-hits"),
		misses:         c.Get("cache.attr-misses"),
		recalls:        c.Get("mds.lease-revocations"),
		lockAcquires:   c.Get("mds.lock-acquires"),
		lockConflicts:  c.Get("mds.lock-conflicts"),
		serverMetaRPCs: w.tb.FS.Stats.MetaRPCs,
	}
	out.tokenRevocations = w.tb.FS.Tokens.Stats.Revocations
	for _, m := range w.d.Mounts {
		out.crossings += m.Ops
	}
	for _, s := range w.d.Service.Shards() {
		out.commits += s.DB.Commits
		if d := s.DB.Disk(); d != nil {
			out.syncs += d.Syncs
		}
	}
	for _, s := range w.pfs {
		out.dataBytes += s.Bytes
	}
	return out
}

func (c counts) sub(o counts) counts {
	return counts{
		calls: c.calls - o.calls, roundtrips: c.roundtrips - o.roundtrips, peerCalls: c.peerCalls - o.peerCalls,
		hits: c.hits - o.hits, misses: c.misses - o.misses, recalls: c.recalls - o.recalls,
		lockAcquires: c.lockAcquires - o.lockAcquires, lockConflicts: c.lockConflicts - o.lockConflicts,
		crossings:        c.crossings - o.crossings,
		tokenRevocations: c.tokenRevocations - o.tokenRevocations, serverMetaRPCs: c.serverMetaRPCs - o.serverMetaRPCs,
		commits: c.commits - o.commits, syncs: c.syncs - o.syncs, dataBytes: c.dataBytes - o.dataBytes,
	}
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced pairs an untraced repetition with a traced one until the
// budget is spent (at least once). Every traced repetition must match
// its untraced twin's virtual metrics bit for bit. The first traced
// repetition is attributed: spans streamed from the JSONL export,
// counters, and a CPU profile of its measured phases.
func runTraced(wl workload, budget time.Duration) (*result, error) {
	res := &result{}
	t0 := time.Now()
	var overhead []float64
	var layers []metric
	var shares map[string]float64
	for len(overhead) == 0 || time.Since(t0) < budget {
		plain, err := runRep(wl, false, hooks{})
		if err != nil {
			return nil, err
		}
		var h hooks
		if layers == nil {
			var prof *cpuProfile
			var c0 counts
			h.before = func(w *world) error {
				c0 = snapshot(w)
				var err error
				prof, err = startCPUProfile()
				return err
			}
			h.after = func(w *world) error {
				var err error
				if shares, err = prof.stop(); err != nil {
					return err
				}
				delta := snapshot(w).sub(c0)
				at, err := attribute(w.d.Tracer(), w.from)
				if err != nil {
					return fmt.Errorf("traced run: %w", err)
				}
				if n := int64(len(at.ops)); n != w.rec.attempted {
					return fmt.Errorf("traced run: %d posix spans for %d measured calls", n, w.rec.attempted)
				}
				layerTable(at)
				layers = perLayer(at, delta, shares)
				return nil
			}
		}
		traced, err := runRep(wl, true, h)
		if err != nil {
			return nil, err
		}
		for _, r := range []*rep{plain, traced} {
			if r.gateErr != nil {
				res.problem("correctness gate: %v", r.gateErr)
			}
			res.attempted += r.rec.attempted
			res.failed += r.rec.failed
		}
		if !slices.Equal(traced.virtual, plain.virtual) {
			res.problem("traced virtual metrics differ from the untraced run's")
		}
		overhead = append(overhead, traced.wall.Seconds()/plain.wall.Seconds())
	}
	res.json = append(layers, metric{name: "host.trace_overhead", value: median(overhead), unit: "ratio"})
	res.report = append(res.report, res.json...)
	res.report = append(res.report, cpuOthers(shares)...)
	return res, nil
}

// isMutation reports whether a sample kind changes the namespace or a
// file (the base of the per-mutation WAL and lease metrics).
func isMutation(kind string) bool { return kind != "stat" && kind != "readdir" }

// perLayer derives the per-layer metrics of one attributed run. Times
// are virtual microseconds per measured call, except the WAL's, which
// are per mutation.
func perLayer(at *attribution, d counts, shares map[string]float64) []metric {
	var sum [nLayers]int64
	var twoPC, mutations int64
	for i := range at.ops {
		op := &at.ops[i]
		for l, v := range op.layers {
			sum[l] += v
		}
		twoPC += op.twoPC
		if isMutation(op.kind) {
			mutations++
		}
	}
	ops := float64(len(at.ops))
	mut := float64(mutations)
	perOp := func(l int) float64 { return ratio(float64(sum[l])/1e3, ops) }
	perMut := func(ns int64) float64 { return ratio(float64(ns)/1e3, mut) }
	out := []metric{
		{name: "vfs.self_vus_per_op", value: perOp(lVFS), unit: "vus"},
		{name: "vfs.crossings_per_op", value: ratio(float64(d.crossings), ops), unit: "count"},
		{name: "core.client_self_vus_per_op", value: perOp(lCoreClient), unit: "vus"},
		{name: "core.cache_hit_ratio", value: ratio(float64(d.hits), float64(d.hits+d.misses)), unit: "ratio"},
		{name: "core.lease_recalls_per_mutation", value: ratio(float64(d.recalls), mut), unit: "count"},
		{name: "rpc.calls_per_op", value: ratio(float64(d.calls), ops), unit: "count"},
		{name: "rpc.roundtrips_per_call", value: ratio(float64(d.roundtrips), float64(d.calls)), unit: "count"},
		{name: "rpc.send_vus", value: perOp(lRPCSend), unit: "vus"},
		{name: "rpc.recv_vus", value: perOp(lRPCRecv), unit: "vus"},
		{name: "rpc.queue_vus", value: perOp(lRPCQueue), unit: "vus"},
		{name: "rpc.serve_self_vus", value: perOp(lRPCServe), unit: "vus"},
		{name: "rpc.peer_calls_per_op", value: ratio(float64(d.peerCalls), ops), unit: "count"},
		{name: "2pc.self_vus_per_op", value: perOp(l2PC), unit: "vus"},
		{name: "2pc.vus_per_op", value: ratio(float64(twoPC)/1e3, ops), unit: "vus"},
		{name: "lock.wait_vus_per_op", value: perOp(lLockWait), unit: "vus"},
		{name: "lock.conflict_ratio", value: ratio(float64(d.lockConflicts), float64(d.lockAcquires)), unit: "ratio"},
		{name: "wal.commit_vus", value: perMut(sum[lWALCommit]), unit: "vus"},
		{name: "wal.flush_vus", value: perMut(at.flushNS), unit: "vus"},
		{name: "wal.sync_vus", value: perMut(sum[lWALSync]), unit: "vus"},
		{name: "mdb.commits_per_sync", value: ratio(float64(d.commits), float64(d.syncs)), unit: "count"},
		{name: "pfs.meta_vus_per_op", value: perOp(lPFSMeta), unit: "vus"},
		{name: "pfs.data_vus_per_op", value: perOp(lPFSData), unit: "vus"},
		{name: "pfs.token_revocations_per_op", value: ratio(float64(d.tokenRevocations), ops), unit: "count"},
		{name: "pfs.server_meta_rpcs_per_op", value: ratio(float64(d.serverMetaRPCs), ops), unit: "count"},
		{name: "pfs.data_mb", value: float64(d.dataBytes) / 1e6, unit: "MB"},
		{name: "other.self_vus_per_op", value: perOp(lOther), unit: "vus"},
	}
	for _, m := range cpuModules {
		out = append(out, metric{name: "host.cpu_share." + m, value: shares[m], unit: "share"})
	}
	return out
}

// cpuOthers reports the CPU shares of the modules perLayer does not
// name, as comment lines.
func cpuOthers(shares map[string]float64) []metric {
	var names []string
	for m := range shares {
		if !slices.Contains(cpuModules, m) {
			names = append(names, m)
		}
	}
	slices.Sort(names)
	var out []metric
	for _, m := range names {
		out = append(out, metric{name: "host.cpu_share." + m, value: shares[m], unit: "share"})
	}
	return out
}

// layerTable prints, per sample kind, the mean latency and each layer's
// share of it, and for creates the same over the calls around the
// median (between the 45th and 55th percentile): the composition of
// create_p50_vms.
func layerTable(at *attribution) {
	byKind := make(map[string][]*opTrace)
	for i := range at.ops {
		op := &at.ops[i]
		byKind[op.kind] = append(byKind[op.kind], op)
	}
	row := func(label string, ops []*opTrace) {
		var sum [nLayers]int64
		var total int64
		for _, op := range ops {
			for l, v := range op.layers {
				sum[l] += v
			}
			total += op.dur
		}
		var parts []string
		for l, v := range sum {
			if v > 0 {
				parts = append(parts, fmt.Sprintf("%s %.1f%%", layerNames[l], 100*float64(v)/float64(total)))
			}
		}
		mean := float64(total) / float64(len(ops)) / 1e6
		fmt.Printf("# layers %-14s n=%-7d mean %.4f vms: %s\n", label, len(ops), mean, strings.Join(parts, ", "))
	}
	for _, k := range opKinds {
		if ops := byKind[k]; len(ops) > 0 {
			row(k, ops)
		}
	}
	if creates := byKind["create"]; len(creates) > 0 {
		durs := make([]time.Duration, len(creates))
		for i, op := range creates {
			durs[i] = time.Duration(op.dur)
		}
		lo, hi := int64(percentile(durs, 45)), int64(percentile(durs, 55))
		var band []*opTrace
		for _, op := range creates {
			if op.dur >= lo && op.dur <= hi {
				band = append(band, op)
			}
		}
		row("create@p45-55", band)
	}
}
