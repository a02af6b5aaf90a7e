package main

import (
	"strings"
	"testing"

	"cofs/internal/bench"
)

// gateRecord is a fully populated record: every field compare gates.
func gateRecord(name string) bench.Record {
	return bench.Record{
		Name: name, Shards: 2, VmsPerOp: 0.5, P50Ms: 0.4, P99Ms: 0.9,
		WallSeconds: 1, AllocsPerOp: 100, Ops: 6144,
		Extra:    map[string]float64{"recovery_vms": 271.1, "zero_extra": 0},
		Counters: map[string]int64{"mds.requests": 42, "mds.standby-reads": 0},
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(cur map[string]bench.Record)
		want   string // substring of the one expected problem; "" = pass
	}{
		{"identical", func(map[string]bench.Record) {}, ""},
		{"host cost within tolerance", func(cur map[string]bench.Record) {
			r := cur["a"]
			r.WallSeconds, r.AllocsPerOp, r.P50Ms, r.P99Ms = 2.4, 114, 0.43, 0.98
			cur["a"] = r
		}, ""},
		{"baseline-only row", func(cur map[string]bench.Record) { delete(cur, "b") }, "b: in baseline but not produced"},
		{"record-only row", func(cur map[string]bench.Record) { cur["c"] = gateRecord("c") }, "c: produced by the battery but missing from the baseline"},
		{"vms_per_op drift", func(cur map[string]bench.Record) { r := cur["a"]; r.VmsPerOp = 0.51; cur["a"] = r }, "a: vms_per_op = 0.51"},
		{"ops drift", func(cur map[string]bench.Record) { r := cur["a"]; r.Ops = 6143; cur["a"] = r }, "a: ops = 6143"},
		{"shards drift", func(cur map[string]bench.Record) { r := cur["a"]; r.Shards = 4; cur["a"] = r }, "a: shards = 4, baseline 2"},
		{"extra drift", func(cur map[string]bench.Record) { cur["a"].Extra["recovery_vms"] = 271.2 }, "a: extra.recovery_vms = 271.2"},
		{"extra added", func(cur map[string]bench.Record) { cur["a"].Extra["new"] = 1 }, "a: extra.new not in baseline"},
		{"extra missing", func(cur map[string]bench.Record) { delete(cur["a"].Extra, "recovery_vms") }, "a: extra.recovery_vms missing from the record"},
		{"zero extra missing", func(cur map[string]bench.Record) { delete(cur["a"].Extra, "zero_extra") }, "a: extra.zero_extra missing from the record"},
		{"counter drift", func(cur map[string]bench.Record) { cur["a"].Counters["mds.requests"] = 43 }, "a: counter mds.requests = 43"},
		{"counter added", func(cur map[string]bench.Record) { cur["a"].Counters["mds.new"] = 0 }, "a: counter mds.new not in baseline"},
		{"counter missing", func(cur map[string]bench.Record) { delete(cur["a"].Counters, "mds.requests") }, "a: counter mds.requests missing from the record"},
		{"zero counter missing", func(cur map[string]bench.Record) { delete(cur["a"].Counters, "mds.standby-reads") }, "a: counter mds.standby-reads missing from the record"},
		{"wall over tolerance", func(cur map[string]bench.Record) { r := cur["a"]; r.WallSeconds = 2.6; cur["a"] = r }, "a: wall_seconds = 2.6 exceeds"},
		{"allocs over tolerance", func(cur map[string]bench.Record) { r := cur["a"]; r.AllocsPerOp = 116; cur["a"] = r }, "a: allocs_per_op = 116 exceeds"},
		{"p50 over tolerance", func(cur map[string]bench.Record) { r := cur["a"]; r.P50Ms = 0.45; cur["a"] = r }, "a: p50_ms = 0.45 exceeds"},
		{"p99 over tolerance", func(cur map[string]bench.Record) { r := cur["a"]; r.P99Ms = 1; cur["a"] = r }, "a: p99_ms = 1 exceeds"},
		{"wall missing", func(cur map[string]bench.Record) { r := cur["a"]; r.WallSeconds = 0; cur["a"] = r }, "a: wall_seconds missing from the record"},
		{"allocs missing", func(cur map[string]bench.Record) { r := cur["a"]; r.AllocsPerOp = 0; cur["a"] = r }, "a: allocs_per_op missing from the record"},
		{"p50 missing", func(cur map[string]bench.Record) { r := cur["a"]; r.P50Ms = 0; cur["a"] = r }, "a: p50_ms missing from the record"},
		{"p99 missing", func(cur map[string]bench.Record) { r := cur["a"]; r.P99Ms = 0; cur["a"] = r }, "a: p99_ms missing from the record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := map[string]bench.Record{"a": gateRecord("a"), "b": gateRecord("b")}
			cur := map[string]bench.Record{"a": gateRecord("a"), "b": gateRecord("b")}
			tc.mutate(cur)
			problems := compare(base, cur, 2.5, 1.15, 1.10)
			switch {
			case tc.want == "" && len(problems) != 0:
				t.Fatalf("want a pass, got %q", problems)
			case tc.want != "" && (len(problems) != 1 || !strings.Contains(problems[0], tc.want)):
				t.Fatalf("want one problem containing %q, got %q", tc.want, problems)
			}
		})
	}
}
