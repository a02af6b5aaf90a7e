package cli

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfile starts the host-side profiles behind -cpuprofile and
// -memprofile: a CPU profile begun immediately, and an allocation
// profile written when the returned stop function runs. Either path may
// be empty to skip that profile. Start begins them before the testbed
// is built and Finish stops them, so the profile covers the whole
// simulation — the workflow docs/simulator.md describes for hunting
// harness hot spots.
func startProfile(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				return err
			}
			// Up-to-date allocation figures; the "allocs" profile keeps
			// cumulative counts, which is what the harness work tracks.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}
