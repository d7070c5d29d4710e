package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// metrics.json is the benchmark's registry: every metric BENCHMARK.json
// lists, what it means on each workload, and — for the per-layer
// metrics — which end-to-end metric on which workload it should move
// and where it should not. It also records the oracle-validate values
// the correctness check compares against.
//
//go:embed metrics.json
var registryJSON []byte

type registry struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
	// OracleValidate is what Accuracy() must return on every run.
	OracleValidate struct {
		Overall float64 `json:"overall"`
		Cells   int     `json:"cells"`
	} `json:"oracle_validate"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Meaning says what the metric measures, per workload for the
	// end-to-end metrics.
	Meaning map[string]string `json:"meaning,omitempty"`
	Def     string            `json:"def,omitempty"`
	// Moves and Still are the per-layer prediction map: a change to
	// this layer should move Moves and leave the Still workloads alone.
	Moves []struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"moves,omitempty"`
	Still []string `json:"still,omitempty"`
}

func loadRegistry() (*registry, error) {
	var r registry
	if err := json.Unmarshal(registryJSON, &r); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return &r, nil
}
