package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the benchmark definition at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricNamesAndUnits(t *testing.T) {
	for _, s := range []string{"a", "tensor.conv_fwd_ms", "nn.tinycnn-nobn.conv1.fw_ms", "9lives"} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	for _, s := range []string{"", ".lead", "_lead", "dist.data:2.step_ms", "a b", "x/y",
		"a1234567890123456789012345678901234567890123456789012345678901234"} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
	reg, err := loadRegistry()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, reg.EndToEnd...), reg.PerLayer...) {
		if !validName(m.Name) || !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q unit %q better %q is malformed", m.Name, m.Unit, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// BENCHMARK.json lists exactly the registry's workloads and metrics, and
// every per-layer metric's prediction names real metrics and workloads.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	reg, err := loadRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, reg.Workloads) {
		t.Error("workloads differ from metrics.json")
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || !validName(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: not runnable, bad name, or why too long", w.Name)
		}
	}
	strip := func(ms []metricDef, bound bool) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if bound {
				out[i].Bound = m.Bound
			}
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, strip(reg.EndToEnd, true)) {
		t.Error("end_to_end differs from metrics.json")
	}
	if !reflect.DeepEqual(b.PerLayer, strip(reg.PerLayer, false)) {
		t.Error("per_layer differs from metrics.json")
	}
	for _, m := range reg.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		for _, w := range b.Workloads {
			if m.Meaning[w.Name] == "" {
				t.Errorf("%s has no meaning on %s", m.Name, w.Name)
			}
		}
	}
	e2e := map[string]bool{}
	for _, m := range reg.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range reg.PerLayer {
		if m.Def == "" {
			t.Errorf("%s has no definition", m.Name)
		}
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] || workloads[mv.Workload] == nil {
				t.Errorf("%s predicts a move of %s on %s", m.Name, mv.Metric, mv.Workload)
			}
		}
		for _, w := range m.Still {
			if workloads[w] == nil {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
	}
}
