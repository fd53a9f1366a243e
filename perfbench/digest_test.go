package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	preexec "repro"
	"repro/internal/experiments"
)

// digestedReports are the report types whose JSON the benchmark digests.
var digestedReports = []any{
	preexec.Figure2Report{}, preexec.Figure3Report{}, preexec.Table3Report{},
	preexec.Figure4Report{}, preexec.Figure5Report{}, preexec.ED2Report{},
	preexec.SweepReport{},
}

// jsonName is the key encoding/json writes for a struct field.
func jsonName(f reflect.StructField) string {
	if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" {
		return name
	}
	return f.Name
}

// TestHostTimingKeyIsOnlyRunReportSimCyclesPerSec pins the digest's one
// edit: across every digested report type, the only field encoded under
// hostTimingKey is RunReport.SimCyclesPerSec.
func TestHostTimingKeyIsOnlyRunReportSimCyclesPerSec(t *testing.T) {
	runReport := reflect.TypeOf(preexec.RunReport{})
	seen := map[reflect.Type]bool{}
	found := 0
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		for ty.Kind() == reflect.Pointer || ty.Kind() == reflect.Slice || ty.Kind() == reflect.Array || ty.Kind() == reflect.Map {
			ty = ty.Elem()
		}
		if ty.Kind() != reflect.Struct || seen[ty] {
			return
		}
		seen[ty] = true
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			if jsonName(f) == hostTimingKey {
				if ty != runReport || f.Name != "SimCyclesPerSec" {
					t.Errorf("%s.%s is encoded as %q: the digest would drop it too", ty, f.Name, hostTimingKey)
				}
				found++
			}
			walk(f.Type)
		}
	}
	for _, r := range digestedReports {
		walk(reflect.TypeOf(r))
	}
	if found == 0 {
		t.Fatalf("no report field is encoded as %q: the digest edits nothing", hostTimingKey)
	}
}

func sampleReport(simRate float64) *preexec.Figure3Report {
	run := func(tgt string, cycles int64) preexec.RunReport {
		return preexec.RunReport{Target: tgt, PThreads: 3, Cycles: cycles, EnergyTotal: 1.25e9,
			SpeedupPct: 12.5, EnergySavePct: -3.0000000000000004, EDSavePct: 9.1, ED2SavePct: 20,
			FullCovPct: 40, PartCovPct: 10, PInstIncPct: 7.5, UsefulPct: 60, AvgPThreadLen: 4.2,
			SimCyclesPerSec: simRate}
	}
	return &preexec.Figure3Report{
		Targets: []string{"L", "P"},
		Benchmarks: []experiments.BenchRuns{
			{Name: "gap", Runs: []preexec.RunReport{run("L", 1000), run("P", 1100)}},
			{Name: "mcf", Runs: []preexec.RunReport{run("L", 5000), run("P", 5200)}},
		},
		GMeans: []experiments.GMeanRow{{Target: "L", SpeedupPct: 16.4}},
	}
}

// leaves flattens a JSON document into path → raw value text.
func leaves(t *testing.T, raw []byte) map[string]string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var walk func(string, any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				walk(path+"/"+k, c)
			}
		case []any:
			for i, c := range x {
				walk(path+"/"+strconv.Itoa(i), c)
			}
		default:
			b, _ := json.Marshal(x)
			out[path] = string(b)
		}
	}
	walk("", v)
	return out
}

// TestCanonicalJSONOnlyClearsHostTiming checks the canonical form keeps
// every other leaf of a report, value for value, and drops exactly the
// SimCyclesPerSec leaves.
func TestCanonicalJSONOnlyClearsHostTiming(t *testing.T) {
	raw, err := json.Marshal(sampleReport(4.5e6))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	before, after := leaves(t, raw), leaves(t, canon)
	dropped := 0
	for path, v := range before {
		if strings.HasSuffix(path, "/"+hostTimingKey) {
			if _, ok := after[path]; ok {
				t.Errorf("%s survived canonicalization", path)
			}
			dropped++
			continue
		}
		if after[path] != v {
			t.Errorf("%s: canonical %q, original %q", path, after[path], v)
		}
	}
	if dropped != 4 {
		t.Errorf("dropped %d host-timing leaves, want 4 (one per run)", dropped)
	}
	if len(after) != len(before)-dropped {
		t.Errorf("canonical form has %d leaves, want %d", len(after), len(before)-dropped)
	}
}

func TestDigestIgnoresHostTimingOnly(t *testing.T) {
	base, err := digestReport(sampleReport(4.5e6))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := digestReport(sampleReport(9.9e6)); d != base {
		t.Error("a different simulator throughput changed the digest")
	}
	if d, _ := digestReport(sampleReport(0)); d != base {
		t.Error("a zero (omitted) simulator throughput changed the digest")
	}
	changed := sampleReport(4.5e6)
	changed.Benchmarks[1].Runs[0].Cycles++
	if d, _ := digestReport(changed); d == base {
		t.Error("a different cycle count left the digest unchanged")
	}
	changed = sampleReport(4.5e6)
	changed.Benchmarks[0].Runs[1].EnergySavePct = -3
	if d, _ := digestReport(changed); d == base {
		t.Error("a last-digit float change left the digest unchanged")
	}
}

func TestCanonicalJSONIgnoresLayout(t *testing.T) {
	a, err := digestJSON([]byte(`{"b": [1, 2.50], "a": {"y": true, "x": null}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := digestJSON([]byte("{\"a\":{\"x\":null,\"y\":true},\n \"b\":[1,2.50]}"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("key order or whitespace changed the digest")
	}
	if _, err := digestJSON([]byte(`{"a":1} {"b":2}`)); err == nil {
		t.Error("trailing data accepted")
	}
}
