package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"paradl/internal/report"
)

// gridBatches are the per-PE batches at which Accuracy() profiles the
// Fig. 3 models: the grid's per-PE batch b, or b/p under spatial and
// pipeline.
var gridBatches = []int{1, 2, 8, 16, 32}

// buildEnv builds a report environment ready for Accuracy(): the Fig. 3
// zoo models and their per-layer profiles at every per-PE batch the
// grid uses. CosmoFlow's Fig. 4 profile is private to report, so
// Accuracy() builds it.
func buildEnv() *report.Env {
	env := report.NewEnv()
	for _, name := range report.Fig3Models() {
		for _, b := range gridBatches {
			env.Profile(name, b)
		}
	}
	return env
}

// runOracleValidate is the untraced timed run of oracle-validate:
// regenerate the Fig. 3/4 projection-vs-measured grid through
// Accuracy(), each time on a freshly built environment (a report.Env
// caches its grid), and check that the overall accuracy and cell count
// equal the recorded values. The grid is fixed, so the seed changes
// nothing here.
func runOracleValidate(p params) (*outcome, error) {
	reg, err := loadRegistry()
	if err != nil {
		return nil, err
	}
	setupS, err := setupMedian(func() error {
		buildEnv()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	var secs []float64
	var last time.Duration
	rss := startRSS()
	start := time.Now()
	for out.attempted == 0 || time.Since(start)+last <= p.budget(1) {
		env := buildEnv()
		// Start every regeneration from a collected heap, so its RSS peak
		// does not depend on how much garbage the last one left behind.
		runtime.GC()
		out.attempted++
		t0 := time.Now()
		sum, err := env.Accuracy()
		last = time.Since(t0)
		if err == nil && (sum.Overall != reg.OracleValidate.Overall || sum.Cells != reg.OracleValidate.Cells) {
			err = fmt.Errorf("accuracy %v over %d cells, recorded %v over %d",
				sum.Overall, sum.Cells, reg.OracleValidate.Overall, reg.OracleValidate.Cells)
		}
		if err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "check failed:", err)
			continue
		}
		secs = append(secs, last.Seconds())
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("no regeneration succeeded")
	}
	slowest := secs[0]
	for _, s := range secs {
		slowest = max(slowest, s)
	}
	fmt.Printf("samples op_ms_p50=%d regenerations of %d cells\n", len(secs), reg.OracleValidate.Cells)
	out.metrics["setup_s"] = setupS
	out.metrics["work_per_s"] = float64(reg.OracleValidate.Cells) / median(secs)
	out.metrics["op_ms_p50"] = 1000 * median(secs)
	out.metrics["op_ms_tail"] = 1000 * slowest
	if out.metrics["rss_p95_mb"], err = rss.p95(); err != nil {
		return nil, err
	}
	return out, nil
}
