package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// testScale runs the benchmark's generators at a fraction of their size.
var testScale = scale{mdtestFiles: 16, lsEntries: 64, lsPasses: 2, jobs: 48}

// tracedRun runs one traced repetition of the named workload and
// returns its virtual metrics and its trace fingerprint.
func tracedRun(t *testing.T, name string, seed int64) ([]metric, string) {
	t.Helper()
	wl, err := newWorkload(name, seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	var fp string
	r, err := runRep(wl, true, hooks{after: func(w *world) error {
		fp = w.d.Tracer().Fingerprint()
		_, err := attribute(w.d.Tracer(), w.from)
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.gateErr != nil {
		t.Fatalf("correctness gate: %v", r.gateErr)
	}
	if r.rec.failed != 0 {
		t.Fatalf("%d of %d calls failed", r.rec.failed, r.rec.attempted)
	}
	return r.virtual, fp
}

// TestDeterminism pins the benchmark's contract: the same seed gives
// bit-identical virtual metrics and trace fingerprints, tracing leaves
// the virtual metrics unchanged, and another seed changes the run.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			v1, fp1 := tracedRun(t, name, 1)
			v2, fp2 := tracedRun(t, name, 1)
			if !slices.Equal(v1, v2) {
				t.Errorf("same seed, different virtual metrics:\n%v\n%v", v1, v2)
			}
			if fp1 != fp2 {
				t.Errorf("same seed, different trace fingerprints %s and %s", fp1, fp2)
			}
			wl, err := newWorkload(name, 1, testScale)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runRep(wl, false, hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(plain.virtual, v1) {
				t.Errorf("tracing changed the virtual metrics:\n%v\n%v", plain.virtual, v1)
			}
			if _, fp3 := tracedRun(t, name, 2); fp3 == fp1 {
				t.Errorf("seeds 1 and 2 gave the same trace")
			}
		})
	}
}

// TestSeedChangesInputs checks that the generated inputs derive from
// the seed.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1, testScale)
		b, _ := newWorkload(name, 2, testScale)
		c, _ := newWorkload(name, 1, testScale)
		if fmt.Sprint(a) == fmt.Sprint(b) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
		if fmt.Sprint(a) != fmt.Sprint(c) {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
	}
}

// TestAttributeRejectsBadNesting feeds the attributor traces whose
// spans do not nest; each must fail the run.
func TestAttributeRejectsBadNesting(t *testing.T) {
	ev := func(tid int, ph, name, ts string) string {
		return fmt.Sprintf(`{"track":"n/p","tid":%d,"ph":"%s","name":"%s","ts_us":%s}`+"\n", tid, ph, name, ts)
	}
	good := ev(1, "B", "posix.stat", "1.000") + ev(1, "B", "cofs.lookup", "1.500") +
		ev(1, "E", "cofs.lookup", "2.250") + ev(1, "E", "posix.stat", "3.000")
	bad := map[string]string{
		"time goes back": ev(1, "B", "posix.stat", "2.000") + ev(1, "B", "cofs.lookup", "1.000") +
			ev(1, "E", "cofs.lookup", "3.000") + ev(1, "E", "posix.stat", "3.000"),
		"crossed ends": ev(1, "B", "posix.stat", "1.000") + ev(1, "B", "cofs.lookup", "1.500") +
			ev(1, "E", "posix.stat", "2.000") + ev(1, "E", "cofs.lookup", "3.000"),
		"nested roots": ev(1, "B", "posix.stat", "1.000") + ev(1, "B", "posix.stat", "1.500") +
			ev(1, "E", "posix.stat", "2.000") + ev(1, "E", "posix.stat", "3.000"),
		"unfinished call": ev(1, "B", "posix.stat", "1.000") + ev(2, "B", "op.lookup", "1.000") +
			ev(2, "E", "op.lookup", "2.000"),
	}
	feed := func(s string) (*attribution, error) {
		at := &attributor{tid: -1}
		// Split mid-line to exercise the writer's line reassembly.
		for _, chunk := range []string{s[:len(s)/2], s[len(s)/2:]} {
			at.Write([]byte(chunk))
		}
		if at.err == nil {
			at.endTrack()
		}
		return &at.a, at.err
	}
	a, err := feed(good)
	if err != nil {
		t.Fatalf("good trace: %v", err)
	}
	if len(a.ops) != 1 || a.ops[0].dur != 2000 || a.ops[0].layers[lVFS] != 1250 || a.ops[0].layers[lCoreClient] != 750 {
		t.Errorf("good trace: got %+v", a.ops)
	}
	for name, s := range bad {
		if _, err := feed(s); err == nil || !strings.Contains(err.Error(), "track") {
			t.Errorf("%s: got %v, want a nesting error", name, err)
		}
	}
}
