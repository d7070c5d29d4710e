// Command perfbench is paradl's benchmark: it runs one named workload
// against the program's public entry points, checks the outputs, and
// prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). The last line of standard output is the
// result object; a provenance stamp precedes it.
//
//	bash perfbench/run.sh --workload train-data --seed 1 --seconds 25 --trace 0
//
// Workloads, metrics and the layer each per-layer metric should move
// are listed in metrics.json and explained in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, so setup_s's first sample includes runtime start-up.
var processStart = time.Now()

// buildDir is where a run keeps what it writes (checkpoints, span
// dumps); run.sh builds the binary there too. Relative to the
// checkout root, which is the working directory.
const buildDir = ".bench_build"

// params is one invocation's workload selection.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // per-run directory under buildDir, removed at exit
}

// budget is the given share of the run's measuring time.
func (p params) budget(share float64) time.Duration {
	return time.Duration(p.seconds * share * float64(time.Second))
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int // a failed check fails its operation
	metrics           map[string]float64
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(params) (*outcome, error){
	"train-data":      runTrainData,
	"train-model":     runTrainModel,
	"plan-serve":      runPlanServe,
	"oracle-validate": runOracleValidate,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var p params
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload name (see metrics.json)")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: inputs, labels, init, key draws and arrivals")
	flag.Float64Var(&p.seconds, "seconds", 25, "measuring time of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer sweep instead of the timed run")
	flag.Parse()
	p.trace = traceFlag == 1

	reg, err := loadRegistry()
	if err != nil {
		return err
	}
	runWorkload, ok := workloads[p.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", p.workload)
	}
	if p.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	p.scratch, err = os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(p.scratch)

	stamp := provenanceStamp(p)
	b, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", b)

	var out *outcome
	want := reg.EndToEnd
	if p.trace {
		out, err = runTraced(p)
		want = reg.PerLayer
	} else {
		out, err = runWorkload(p)
	}
	if err != nil {
		return err
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", p.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-40s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", p.workload)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// scratchPath joins name under the run's scratch directory.
func (p params) scratchPath(name string) string { return filepath.Join(p.scratch, name) }
