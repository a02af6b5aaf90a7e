package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuModules are the modules whose host CPU share the traced run
// reports as host.cpu_share.<module>.
var cpuModules = []string{"sim", "core", "mdb", "rpc", "pfs", "vfs", "lock", "lru", "netsim", "obs"}

// cpuProfile profiles the host CPU while it is open.
type cpuProfile struct{ f *os.File }

func startCPUProfile() (*cpuProfile, error) {
	f, err := os.CreateTemp("", "perfbench-cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and returns each module's share of the CPU
// samples, read with `go tool pprof -traces`. A sample is charged to the
// innermost cofs/internal/<module> frame of its stack, so runtime work
// (allocation, scheduling, channel hand-offs) lands on the module that
// caused it. Samples with no such frame are "bench" (this program's own
// code) or "runtime" (garbage collection and other background work).
func (c *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(c.f.Name())
	if err := c.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", c.f.Name())
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	by := make(map[string]time.Duration)
	var total time.Duration
	var cur time.Duration // value of the sample being read
	module := ""          // its innermost cofs module so far
	flush := func() {
		if cur == 0 {
			return
		}
		if module == "" {
			module = "runtime"
		}
		by[module] += cur
		total += cur
		cur, module = 0, ""
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	// After the header, samples are separated by "-----------+---..."
	// lines; a sample's first line is "<value>   <leaf frame>", each
	// further line one caller frame.
	inSample, first := false, false
	var perr error
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inSample || len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if first {
			first = false
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				if perr == nil {
					perr = fmt.Errorf("pprof traces: bad sample line %q", line)
				}
				continue
			}
			cur, frame = d, fields[1]
		}
		if module == "" {
			module = moduleOf(frame)
		}
	}
	flush()
	if err := sc.Err(); err != nil && perr == nil {
		perr = err
	}
	if err := cmd.Wait(); err != nil && perr == nil {
		perr = fmt.Errorf("go tool pprof: %w", err)
	}
	if perr != nil {
		return nil, perr
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(by))
	for m, d := range by {
		shares[m] = float64(d) / float64(total)
	}
	return shares, nil
}

// moduleOf names the module a frame belongs to, or "" for runtime and
// standard-library frames.
func moduleOf(frame string) string {
	if rest, ok := strings.CutPrefix(frame, "cofs/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	return ""
}
