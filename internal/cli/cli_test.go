package cli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cofs/internal/cluster"
	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/store"
)

// parse registers the shared flags plus one tool flag, -reshard-at, on
// a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	set := flag.NewFlagSet("tool", flag.ContinueOnError)
	set.SetOutput(io.Discard)
	set.String("reshard-at", "", "")
	f := Register(set, 42)
	if err := set.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestConfigFromFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want func(c *params.COFSParams)
	}{
		{nil, func(c *params.COFSParams) {}},
		{[]string{"-shards", "4"}, func(c *params.COFSParams) { c.MetadataShards = 4 }},
		{[]string{"-store", "mdls"}, func(c *params.COFSParams) { c.MetadataStore = "mdls" }},
		{[]string{"-attr-lease", "30s"}, func(c *params.COFSParams) { c.AttrLease = 30 * time.Second }},
		{[]string{"-rpc-batch"}, func(c *params.COFSParams) { c.RPCBatch = true }},
		{[]string{"-standby-reads"}, func(c *params.COFSParams) { c.StandbyReads = true }},
		{[]string{"-trace", "t.json"}, func(c *params.COFSParams) { c.Trace = true }},
		{[]string{"-slowlog", "1ms"}, func(c *params.COFSParams) { c.Trace = true }},
		{[]string{"-metrics"}, func(c *params.COFSParams) { c.Metrics = true }},
		// Not configuration: the testbed size, seed and host profiles.
		{[]string{"-nodes", "8", "-seed", "3", "-cpuprofile", "c", "-memprofile", "m"}, func(c *params.COFSParams) {}},
	} {
		got, err := parse(t, tc.args...).Config("cofs")
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want := params.Default()
		tc.want(&want.COFS)
		if got != want {
			t.Errorf("%v: config\n%+v\nwant\n%+v", tc.args, got.COFS, want.COFS)
		}
	}
	f := parse(t, "-nodes", "8")
	if f.Nodes != 8 || f.Seed != 42 {
		t.Errorf("nodes=%d seed=%d, want 8 and the tool's default 42", f.Nodes, f.Seed)
	}
}

func TestConfigRejectsUnknownStore(t *testing.T) {
	_, err := parse(t, "-store", "bogus").Config("cofs")
	if err == nil {
		t.Fatal("unknown -store accepted")
	}
	for _, name := range append(store.Names(), "bogus") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}

func TestConfigRejectsCOFSFlagsOnGPFS(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "t.json", "-shards", "4"},
		{"-shards", "1"}, // set to its default still counts as set
		{"-store", "mdb"},
		{"-attr-lease", "1s"},
		{"-rpc-batch"},
		{"-standby-reads"},
		{"-metrics"},
		{"-slowlog", "1ms"},
		{"-reshard-at", "stat"},
	} {
		_, err := parse(t, args...).Config("gpfs", "reshard-at")
		if err == nil {
			t.Errorf("%v accepted on gpfs", args)
		} else if !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: error %q does not name %s", args, err, args[0])
		}
	}
	if _, err := parse(t, "-nodes", "8", "-seed", "3", "-cpuprofile", "c").Config("gpfs", "reshard-at"); err != nil {
		t.Errorf("stack-neutral flags rejected on gpfs: %v", err)
	}
	if _, err := parse(t).Config("zfs"); err == nil {
		t.Error("unknown stack accepted")
	}
}

// TestReportWritesTrace runs a small traced deployment through Report:
// the trace file must parse, and an unwritable path must fail the
// report rather than pass silently.
func TestReportWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	r := parse(t, "-nodes", "1", "-trace", path).Start("cofs")
	r.TB.Env.Spawn("mkdir", func(p *sim.Proc) {
		if err := r.D.Mounts[0].Mkdir(p, cluster.Ctx(0, 1), "/d", 0777); err != nil {
			t.Error(err)
		}
	})
	r.TB.Run()
	if err := r.Report(io.Discard); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(body) || r.D.Tracer().Spans == 0 {
		t.Fatalf("trace is empty or not JSON: %.80s", body)
	}
	r.f.TraceOut = filepath.Join(path, "not-a-dir", "t.json")
	if err := r.Report(io.Discard); err == nil {
		t.Fatal("report into an unwritable trace path succeeded")
	}
}
