package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/collective"
	"paradl/internal/core"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/measure"
	"paradl/internal/model"
	"paradl/internal/report"
	"paradl/internal/simnet"
	"paradl/internal/tensor"
)

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps calls f reps times, one span per call under parent, and
// returns the median call time.
func timeReps(sp *spans, parent int, name string, reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		sp.add(name, parent, t0, t1)
		ds = append(ds, float64(t1.Sub(t0)))
	}
	return time.Duration(median(ds)), nil
}

// collectiveReps is how many times each collective runs on the
// 2-PE world.
const collectiveReps = 200

// onWorld runs body on both ranks of a fresh 2-PE world, reps times,
// and returns rank 0's median time per call. body gets a fresh n-element
// buffer each call, since collectives take ownership of their input.
func onWorld(sp *spans, parent int, name string, shape []int, body func(c *dist.Comm, t *tensor.Tensor)) time.Duration {
	w := dist.NewWorld(2)
	id := sp.begin(name, parent)
	defer sp.end(id)
	var times []float64
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			for i := 0; i < collectiveReps; i++ {
				t := tensor.New(shape...)
				t.Fill(float64(rank + 1))
				t0 := time.Now()
				body(c, t)
				if rank == 0 {
					times = append(times, float64(time.Since(t0)))
				}
			}
		}(rank)
	}
	wg.Wait()
	return time.Duration(median(times))
}

// traceCollectives calls the Comm collectives directly at the sizes the
// training legs move: the tinycnn-nobn gradient (data:2 allreduce), the
// tiny3d first-conv activation (filter:2 allgather and reduce-scatter)
// and the tiny3d stage boundary (pipeline:2 send/recv).
func traceCollectives(sp *spans, parent int, m map[string]float64) error {
	grad := int(model.TinyCNNNoBN().Params())
	t3 := model.Tiny3D()
	act := append([]int{globalBatch, t3.Layers[0].F}, t3.Layers[0].Out...)
	shard := append([]int{globalBatch, t3.Layers[0].F / 2}, t3.Layers[0].Out...)
	cut := t3.Layers[len(t3.Layers)/2]
	boundary := append([]int{globalBatch, cut.F}, cut.Out...)

	ar := onWorld(sp, parent, "dist.allreduce", []int{grad}, func(c *dist.Comm, t *tensor.Tensor) { c.AllReduceSum(t) })
	m["dist.allreduce_us"] = us(ar)
	m["dist.allreduce_gbps"] = float64(8*grad) / ar.Seconds() / 1e9
	m["dist.allgather_us"] = us(onWorld(sp, parent, "dist.allgather", shard, func(c *dist.Comm, t *tensor.Tensor) { c.AllGather(t, 1) }))
	m["dist.reduce_scatter_us"] = us(onWorld(sp, parent, "dist.reduce_scatter", act, func(c *dist.Comm, t *tensor.Tensor) { c.ReduceScatterSum(t, 1) }))
	// Half a ping-pong: one stage-boundary transfer.
	m["dist.sendrecv_us"] = us(onWorld(sp, parent, "dist.sendrecv", boundary, func(c *dist.Comm, t *tensor.Tensor) {
		if c.Rank() == 0 {
			c.Send(1, t)
			c.Recv(1)
		} else {
			c.Recv(0)
			c.Send(0, t)
		}
	})) / 2
	return nil
}

// traceCkpt times the checkpoint path on the last state the traced
// train-model legs handed over: the async writer's Put, the encoding
// and the atomic save.
func traceCkpt(p params, st *ckpt.State, sp *spans, parent int, m map[string]float64) error {
	id := sp.begin("ckpt", parent)
	defer sp.end(id)
	dir := p.scratchPath("ckpt-probe")
	w := ckpt.NewWriter(dir)
	put, err := timeReps(sp, id, "ckpt.put", 200, func() error { w.Put(st); return nil })
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	enc, err := timeReps(sp, id, "ckpt.encode", 50, func() error { _, err := st.Encode(); return err })
	if err != nil {
		return err
	}
	save, err := timeReps(sp, id, "ckpt.save", 20, func() error { _, err := ckpt.Save(dir, st); return err })
	if err != nil {
		return err
	}
	m["ckpt.put_us"] = us(put)
	m["ckpt.encode_ms"] = ms(enc)
	m["ckpt.save_ms"] = ms(save)
	return nil
}

// coreConfigs are the oracle configurations the core probe prices: every
// paper model at the popular plan-serve widths.
func coreConfigs() ([]core.Config, error) {
	var out []core.Config
	for _, name := range paperModels {
		ds, err := data.ForModel(name)
		if err != nil {
			return nil, err
		}
		for _, g := range popularGPUs {
			cfg, err := core.ConfigRef{Model: name, D: ds.Samples, B: 32 * g, P: g}.Resolve()
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
	}
	return out, nil
}

// traceCore times core.Project (every strategy) and core.Advise over the
// core configurations; an infeasible strategy is an answer, not a
// failure, so Project's error is not one here.
func traceCore(sp *spans, parent int, m map[string]float64) error {
	cfgs, err := coreConfigs()
	if err != nil {
		return err
	}
	id := sp.begin("core", parent)
	defer sp.end(id)
	var proj, adv []float64
	for _, cfg := range cfgs {
		for _, s := range core.Strategies() {
			d, _ := timeReps(sp, id, "core.project", 3, func() error { core.Project(cfg, s); return nil })
			proj = append(proj, us(d))
		}
		d, err := timeReps(sp, id, "core.advise", 3, func() error { _, err := core.Advise(cfg); return err })
		if err != nil {
			return err
		}
		adv = append(adv, us(d))
	}
	m["core.project_us"] = median(proj)
	m["core.advise_us"] = median(adv)
	return nil
}

// traceServe runs the planner at the reference rate with one span per
// request, reads the server's counters, and times the handler directly
// for a cache hit and a miss.
func traceServe(p params, sp *spans, parent int, out *outcome) error {
	pl, err := startPlanner()
	if err != nil {
		return err
	}
	defer pl.stop()
	popular := popularOps()
	if err := pl.warm(popular); err != nil {
		return err
	}
	nextD := 1_000_000 + p.seed%1000*1_000_000
	warm := pl.phase(p.seed-1, refRate, warmSeconds, popular, &nextD)
	id := sp.begin(fmt.Sprintf("serve.rate.%d", refRate), parent)
	ph := pl.phase(p.seed, refRate, p.seconds*serveTraceShare, popular, &nextD)
	for i, op := range ph.ops {
		due := ph.st.start.Add(op.due)
		sp.add("serve.request."+op.kind, id, due, due.Add(ph.st.results[i].lat))
	}
	sp.end(id)
	out.attempted += len(warm.ops) + len(ph.ops)
	out.failed += warm.failed + ph.failed
	st := pl.srv.Stats()
	m := out.metrics
	m["serve.hit_ratio"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	m["serve.coalesced"] = float64(st.Coalesced)
	m["serve.shed"] = float64(st.Shed)
	m["serve.computations"] = float64(st.Computations)
	lags := make([]float64, len(ph.st.results))
	for i, r := range ph.st.results {
		lags[i] = ms(r.lag)
	}
	lag, ok := percentile(lags, 0.99)
	if !ok {
		return fmt.Errorf("%d requests: too few for a p99 of generator lateness", len(lags))
	}
	m["serve.gen_lag_ms"] = lag
	m["serve.inflight_max"] = float64(ph.st.maxOutstanding)

	h := pl.srv.Handler()
	direct := func(op serveOp) func() error {
		return func() error {
			req := httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s %s: status %d", op.path, op.body, rec.Code)
			}
			return nil
		}
	}
	hid := sp.begin("serve.handler", parent)
	defer sp.end(hid)
	hit, err := timeReps(sp, hid, "serve.handler.hit", 500, direct(popular[0]))
	if err != nil {
		return err
	}
	var misses []float64
	for i := 0; i < 100; i++ {
		nextD++
		op := request{Model: "resnet50", GPUs: 64, Batch: 32, D: nextD}.op("/advise", "miss")
		d, err := timeReps(sp, hid, "serve.handler.miss", 1, direct(op))
		if err != nil {
			return err
		}
		misses = append(misses, us(d))
	}
	m["serve.hit_handler_us"] = us(hit)
	m["serve.miss_handler_us"] = median(misses)
	return nil
}

// traceCells times single oracle-vs-measured grid cells — core.Project
// plus measure.Measure, the two halves of each Fig. 3 cell — for
// resnet50's data, df and ds columns, and one ring-allreduce round of
// the flow-level simulator at 64 and 1024 PEs.
func traceCells(p params, sp *spans, parent int, m map[string]float64) error {
	env := report.NewEnv()
	id := sp.begin("measure", parent)
	defer sp.end(id)
	var cells []float64
	start := time.Now()
	for len(cells) == 0 || time.Since(start) < p.budget(cellShare) {
		for _, pw := range []int{16, 64, 256, 1024} {
			for _, c := range []struct {
				s     core.Strategy
				perPE int
			}{{core.Data, 32}, {core.DataFilter, 8}, {core.DataSpatial, 8}} {
				cfg := env.Config("resnet50", pw, c.perPE*pw, c.perPE)
				d, err := timeReps(sp, id, "measure.cell", 1, func() error {
					if _, err := core.Project(cfg, c.s); err != nil {
						return err
					}
					_, err := measure.Measure(env.Engine, cfg, c.s)
					return err
				})
				if err != nil {
					return err
				}
				cells = append(cells, ms(d))
			}
		}
	}
	m["measure.cell_ms"] = median(cells)
	topo := env.Engine.Topo
	for _, pw := range []int{64, 1024} {
		pes := make([]int, pw)
		for i := range pes {
			pes[i] = i
		}
		// resnet50's gradient (~100 MB) split over the ring.
		op, _ := collective.RingRound("allreduce", pes, 102e6/float64(pw), false)
		d, err := timeReps(sp, id, fmt.Sprintf("simnet.ring.p%d", pw), 20, func() error {
			collective.Run(simnet.NewSim(topo.Net), topo, op)
			return nil
		})
		if err != nil {
			return err
		}
		m[fmt.Sprintf("simnet.ring_ms.p%d", pw)] = ms(d)
	}
	return nil
}
