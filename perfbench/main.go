// Command perfbench is the repository's benchmark: it drives the
// mdtest-trees, shared-ls and batch-jobs workloads through COFS mounts,
// checks the outputs, and prints the virtual-time and host-cost
// end-to-end metrics (--trace 0) or the per-layer attribution of a
// traced run (--trace 1). The last line of standard output is one JSON
// object; README.md explains every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: mdtest-trees, shared-ls or batch-jobs")
	seed := flag.Int64("seed", 1, "seed the workload inputs derive from")
	seconds := flag.Int("seconds", 20, "host seconds to keep repeating the workload")
	trace := flag.Int("trace", 0, "1: run traced and report per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	wls, err := newWorkloads(*name, *seed, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printMeta(*name, *seed, *trace)
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(wls[0], budget)
	} else {
		res, err = runPlain(wls, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.report {
		fmt.Println(m)
	}
	out, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMeta prints the run's metadata as a comment line.
func printMeta(name string, seed int64, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	meta, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": commit,
	})
	fmt.Printf("# meta %s\n", meta)
}

// metric is one reported figure; n is the sample count behind a
// percentile (0 for other metrics).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func (m metric) String() string {
	s := fmt.Sprintf("# %-34s %14.6f %s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" (n=%d)", m.n)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latency(name string, ds []time.Duration, q float64) metric {
	return metric{name: name, value: ms(percentile(ds, q)), unit: "vms", n: len(ds)}
}

// result is what one invocation prints: report holds every metric as a
// comment line, json the ones the final JSON line carries. problems
// lists every failed correctness check.
type result struct {
	report    []metric
	json      []metric
	attempted int64
	failed    int64
	problems  []string
}

func (r *result) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	r.problems = append(r.problems, msg)
}

func (r *result) jsonLine() map[string]any {
	ms := make(map[string]any, len(r.json))
	for _, m := range r.json {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0 && len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// rep is one repetition: set up a fresh world, run the measured phases,
// gate the result.
type rep struct {
	virtual []metric // bit-deterministic for a seed
	setup   time.Duration
	wall    time.Duration
	allocs  uint64
	heap    uint64
	samples int64
	rec     *recorder
	gateErr error
}

// subRuns is how many sub-seeds one run pools its virtual metrics over:
// a single seed's tail percentiles swing with its particular
// interleaving, four pooled ones much less.
const subRuns = 4

// newWorkloads builds the run's sub-seed instances of a workload, each
// with its own generated inputs; the sub-seeds derive from seed.
func newWorkloads(name string, seed int64, sc scale) ([]workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var wls []workload
	for k := 0; k < subRuns; k++ {
		wl, err := newWorkload(name, rng.Int63(), sc)
		if err != nil {
			return nil, err
		}
		wls = append(wls, wl)
	}
	return wls, nil
}

// setUp builds a world and pre-populates it: the set-up setup_s times.
// It also takes the object count the gate compares against.
func setUp(wl workload, traced bool) (*world, error) {
	w := newWorld(wl.deployment(), traced)
	if err := wl.prepare(w); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	files, dirs, err := w.objects()
	if err != nil {
		return nil, err
	}
	w.base = [2]int64{files, dirs}
	return w, nil
}

// gateWorld runs the correctness gate on w.
func gateWorld(wl workload, w *world) error {
	if err := w.gate(); err != nil {
		return err
	}
	return wl.check(w)
}

// hooks run around the timed measured phases of a repetition, outside
// the host timing.
type hooks struct {
	before func(*world) error
	after  func(*world) error
}

// runRep runs one repetition: set-up, the measured phases, then the
// correctness gate.
func runRep(wl workload, traced bool, h hooks) (*rep, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := setUp(wl, traced)
	if err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0), rec: w.rec}
	if h.before != nil {
		if err := h.before(w); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.from = w.tb.Env.Now()
	start := time.Now()
	span, err := wl.measure(w)
	r.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	r.allocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heap = m1.HeapAlloc
	r.samples = w.rec.attempted - w.rec.failed
	w.rec.span = span
	r.virtual = virtualMetrics(wl, w.rec)
	if h.after != nil {
		if err := h.after(w); err != nil {
			return nil, err
		}
	}
	r.gateErr = gateWorld(wl, w)
	return r, nil
}

// virtualMetrics are the end-to-end metrics of the simulated COFS over
// the samples of rec, one repetition or several merged.
func virtualMetrics(wl workload, rec *recorder) []metric {
	ok := rec.attempted - rec.failed
	out := []metric{
		{name: "ops_per_vs", value: float64(ok) / rec.span.Seconds(), unit: "ops/vs"},
		latency("create_p50_vms", rec.lat["create"], 50),
		latency("create_p99_vms", rec.lat["create"], 99),
		latency("stat_p50_vms", rec.lat["stat"], 50),
		latency("stat_p99_vms", rec.lat["stat"], 99),
		latency("mutate_p99_vms", rec.mutate, 99),
	}
	out = append(out, wl.extras(rec)...)
	errRatio := 0.0
	if rec.attempted > 0 {
		errRatio = float64(rec.failed) / float64(rec.attempted)
	}
	return append(out, metric{name: "error_ratio", value: errRatio, unit: "ratio"})
}

// gatedVirtual names the virtual metrics the final JSON line carries:
// those every workload has and that are never 0.
var gatedVirtual = []string{"ops_per_vs", "create_p50_vms", "create_p99_vms", "stat_p50_vms", "stat_p99_vms", "mutate_p99_vms"}

// sweeper is a workload with results beyond its repetitions
// (batch-jobs' arrival-rate sweep).
type sweeper interface {
	runSweep() ([]metric, int64, int64, error)
}

// runPlain repeats the untraced workload until the budget is spent,
// cycling through the sub-seed instances (each at least once). Every
// repetition must pass the gate, and a repeated sub-seed must give its
// first repetition's virtual metrics bit for bit. Virtual metrics pool
// the first repetition of every sub-seed; host metrics are medians over
// all repetitions, with set-up time sampled at least minSetups times.
func runPlain(wls []workload, budget time.Duration) (*result, error) {
	const minSetups = 32
	res := &result{}
	t0 := time.Now()
	var reps []*rep
	var recs []*recorder
	for len(reps) < len(wls) || time.Since(t0) < budget {
		i := len(reps)
		wl := wls[i%len(wls)]
		r, err := runRep(wl, false, hooks{})
		if err != nil {
			return nil, err
		}
		if r.gateErr != nil {
			res.problem("repetition %d: correctness gate: %v", i, r.gateErr)
		}
		if i >= len(wls) && !slices.Equal(r.virtual, reps[i-len(wls)].virtual) {
			res.problem("repetition %d: virtual metrics differ from sub-seed %d's first repetition", i, i%len(wls))
		}
		res.attempted += r.rec.attempted
		res.failed += r.rec.failed
		if i < len(wls) {
			recs = append(recs, r.rec)
		}
		r.rec = nil
		reps = append(reps, r)
	}
	setups := make([]time.Duration, 0, minSetups)
	for _, r := range reps {
		setups = append(setups, r.setup)
	}
	for len(setups) < minSetups {
		runtime.GC()
		t := time.Now()
		if _, err := setUp(wls[len(setups)%len(wls)], false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
	}
	virtual := virtualMetrics(wls[0], merge(recs))
	res.report = append(res.report, virtual...)
	if sw, ok := wls[0].(sweeper); ok {
		ms, attempted, failed, err := sw.runSweep()
		if err != nil {
			return nil, err
		}
		res.report = append(res.report, ms...)
		res.attempted += attempted
		res.failed += failed
	}
	host := hostMetrics(reps, setups)
	res.report = append(res.report, host...)
	for _, m := range virtual {
		if slices.Contains(gatedVirtual, m.name) {
			res.json = append(res.json, m)
		}
	}
	res.json = append(res.json, host...)
	return res, nil
}

// hostMetrics are the simulator's own costs. Throughput and set-up
// time are medians over every sample; allocations and live heap depend
// on the inputs, so they are medians over the first repetition of each
// sub-seed, the same set on every run of a seed.
func hostMetrics(reps []*rep, setups []time.Duration) []metric {
	var opsPerS, allocs, heap, setup []float64
	for i, r := range reps {
		opsPerS = append(opsPerS, float64(r.samples)/r.wall.Seconds())
		if i < subRuns {
			allocs = append(allocs, float64(r.allocs)/float64(r.samples))
			heap = append(heap, float64(r.heap)/1e6)
		}
	}
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	return []metric{
		{name: "sim_ops_per_s", value: median(opsPerS), unit: "ops/s"},
		{name: "allocs_per_op", value: median(allocs), unit: "allocs/op"},
		{name: "heap_mb", value: median(heap), unit: "MB"},
		{name: "setup_s", value: median(setup), unit: "s"},
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
