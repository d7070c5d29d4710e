package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/dist"
	"paradl/internal/trace"
)

// Shares of --seconds the traced sweep gives its time-boxed parts; the
// fixed-repetition probes (collectives, ckpt, core) take the rest.
const (
	trainTraceShare = 0.40
	layerShare      = 0.20
	serveTraceShare = 0.15
	cellShare       = 0.08
)

// runTraced is the traced run: it measures every per-layer metric,
// whichever workload it is named for, recording spans around each
// call it makes into the program. Training legs also run under
// dist.WithTrace for the phase split only the engines can see. The
// spans are written to .bench_build when the run ends.
func runTraced(p params) (*outcome, error) {
	sp := newSpans()
	root := sp.begin("sweep."+p.workload, 0)
	out := &outcome{metrics: map[string]float64{}}
	last, err := traceTraining(p, sp, root, out)
	if err != nil {
		return nil, err
	}
	traceLayers(p, sp, root, out.metrics)
	if err := traceCollectives(sp, root, out.metrics); err != nil {
		return nil, err
	}
	if err := traceCkpt(p, last, sp, root, out.metrics); err != nil {
		return nil, err
	}
	if err := traceCore(sp, root, out.metrics); err != nil {
		return nil, err
	}
	if err := traceServe(p, sp, root, out); err != nil {
		return nil, err
	}
	if err := traceCells(p, sp, root, out.metrics); err != nil {
		return nil, err
	}
	sp.end(root)

	all := sp.snapshot()
	path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", p.workload, p.seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	printSelfTimes(all)
	fmt.Printf("spans %d written to %s\n", len(all), path)
	return out, nil
}

// printSelfTimes prints the span names with the most self time.
func printSelfTimes(all []span) {
	self := selfTimes(all)
	byName := map[string]time.Duration{}
	for _, s := range all {
		name := s.Name
		if i := strings.LastIndexByte(name, '.'); i > 0 && strings.HasPrefix(name, "nn.") {
			name = name[:i] // fold nn.<model>.<layer>.fw into one row per layer
		}
		byName[name] += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	for i, n := range names {
		if i == 12 {
			break
		}
		fmt.Printf("self %-40s %10.1f ms\n", n, ms(byName[n]))
	}
}

// legName turns a plan string into a metric-name component.
func legName(plan string) string { return strings.ReplaceAll(plan, ":", "_") }

// phaseMetrics maps each dist.* phase metric to its trace phase.
var phaseMetrics = map[string]trace.Phase{
	"dist.compute_fwd_ms":       trace.ComputeForward,
	"dist.compute_bwd_ms":       trace.ComputeBackward,
	"dist.collective_wait_ms":   trace.CollectiveWait,
	"dist.collective_launch_ms": trace.CollectiveLaunch,
	"dist.halo_ms":              trace.Halo,
	"dist.pipeline_transfer_ms": trace.PipelineTransfer,
	"dist.checkpoint_put_ms":    trace.CheckpointPut,
	"dist.idle_ms":              trace.Idle,
}

// legAcc accumulates one leg's traced and untraced runs.
type legAcc struct {
	gaps                []float64
	busy, comm          int64
	traced, untraced    time.Duration
	steps               int
	mallocs, allocBytes uint64
}

// traceTraining runs every leg of both training workloads once
// untraced (wall time and allocations) and once under dist.WithTrace
// (phases and step spans) per round, checking parity and checkpoints
// as the timed runs do. It returns the last checkpoint handed over.
func traceTraining(p params, sp *spans, parent int, out *outcome) (*ckpt.State, error) {
	type wl struct {
		name string
		spec trainSpec
		set  *trainSet
		ref  []float64
	}
	wls := []*wl{{name: "train-data", spec: trainData}, {name: "train-model", spec: trainModel}}
	for _, w := range wls {
		var err error
		if w.set, err = w.spec.setup(p.seed); err != nil {
			return nil, err
		}
		r, err := w.set.runLeg("serial", p.seed)
		if err != nil {
			return nil, err
		}
		w.ref = r.losses
	}
	sink := newCkptSink(p.scratchPath("ckpt-traced"))
	defer sink.w.Close()

	acc := map[string]*legAcc{}
	phaseNS := map[trace.Phase]int64{}
	var asyncNS int64
	var collectives, peSteps, ckpts, dropped int
	var ckptNS int64
	fail := func(err error) {
		out.failed++
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < p.budget(trainTraceShare); round++ {
		for _, w := range wls {
			wid := sp.begin("workload."+w.name, parent)
			legs := w.spec.legs
			if w.name == "train-data" {
				legs = append([]string{"serial"}, legs...) // the scaling baseline
			}
			for _, leg := range legs {
				a := acc[leg]
				if a == nil {
					a = &legAcc{}
					acc[leg] = a
				}
				var extra []dist.Option
				if w.spec.ckptEvery > 0 {
					extra = append(extra, dist.WithCheckpoint(w.spec.ckptEvery, sink.put))
				}
				lid := sp.begin("leg."+leg, wid)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				plain, err := w.set.runLeg(leg, p.seed, extra...)
				runtime.ReadMemStats(&m1)
				out.attempted++
				if err == nil {
					err = parityErr(leg, plain.losses, w.ref)
				}
				if err != nil {
					fail(err)
					sp.end(lid)
					continue
				}
				rec := trace.NewRecorder()
				traced, err := w.set.runLeg(leg, p.seed, append(extra, dist.WithTrace(rec))...)
				out.attempted++
				if err == nil {
					err = parityErr(leg, traced.losses, w.ref)
				}
				dropped += rec.Dropped()
				if err == nil && rec.Dropped() > 0 {
					// The phase metrics would come from an incomplete trace.
					err = fmt.Errorf("%s leg %s: the recorder dropped %d trace events", w.name, leg, rec.Dropped())
				}
				if err != nil {
					fail(err)
					sp.end(lid)
					continue
				}
				sp.add("run.untraced", lid, plain.start, plain.start.Add(plain.wall))
				rid := sp.add("run.traced", lid, traced.start, traced.start.Add(traced.wall))
				prev := traced.start
				for _, st := range traced.stamps {
					sp.add("step", rid, prev, st)
					prev = st
				}
				sp.end(lid)

				sum := rec.Summarize()
				a.gaps = append(a.gaps, traced.gaps()...)
				a.busy += sum.BusyNS()
				a.comm += sum.CommNS()
				a.traced += traced.wall
				a.untraced += plain.wall
				a.steps += len(plain.losses)
				a.mallocs += m1.Mallocs - m0.Mallocs
				a.allocBytes += m1.TotalAlloc - m0.TotalAlloc
				if leg == "serial" {
					continue
				}
				for _, ph := range phaseMetrics {
					phaseNS[ph] += sum.PhaseNS[ph.String()]
				}
				asyncNS += sum.AsyncNS
				peSteps += sum.PEs * len(traced.losses)
				for _, e := range rec.Events() {
					if e.Track >= 0 && (e.Async || e.Phase == trace.CollectiveWait) {
						collectives++
					}
				}
				if w.spec.ckptEvery > 0 {
					ckptNS += sum.PhaseNS[trace.CheckpointPut.String()]
					ckpts += sum.PEs * (len(traced.losses) / w.spec.ckptEvery)
				}
			}
			sp.end(wid)
		}
		out.attempted++
		if err := sink.verify(); err != nil {
			fail(err)
		}
	}
	if peSteps == 0 || ckpts == 0 {
		return nil, fmt.Errorf("no parallel training leg completed")
	}
	m := out.metrics
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / float64(peSteps) }
	for name, ph := range phaseMetrics {
		m[name] = perStep(phaseNS[ph])
	}
	m["dist.async_hidden_ms"] = perStep(asyncNS)
	m["dist.collectives_per_step"] = float64(collectives) / float64(peSteps)
	var traced, untraced time.Duration
	var mallocs, allocBytes uint64
	parSteps := 0
	for leg, a := range acc {
		m["dist."+legName(leg)+".step_ms"] = median(a.gaps)
		traced += a.traced
		untraced += a.untraced
		if leg == "serial" {
			continue
		}
		m["dist."+legName(leg)+".comm_share"] = float64(a.comm) / float64(a.busy)
		mallocs += a.mallocs
		allocBytes += a.allocBytes
		parSteps += a.steps
	}
	m["dist.allocs_per_step"] = float64(mallocs) / float64(parSteps)
	m["dist.alloc_kb_per_step"] = float64(allocBytes) / 1024 / float64(parSteps)
	// Both legs of train-data run the same batches, so the wall-time
	// ratio is the throughput ratio.
	m["dist.scaling_eff"] = acc["serial"].untraced.Seconds() / acc["data:2"].untraced.Seconds()
	m["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	m["trace.dropped"] = float64(dropped)
	m["ckpt.stall_ms"] = float64(ckptNS) / 1e6 / float64(ckpts)
	st := sink.w.Stats()
	m["ckpt.saved_frac"] = float64(st.Saved) / float64(st.Saved+st.Dropped)
	return sink.last, nil
}
