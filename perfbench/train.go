package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"paradl/internal/ckpt"
	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

const (
	globalBatch = 32
	stepsPerRun = 8 // batches per dist.Run call; the same batches every round
	learnRate   = 0.01
	momentum    = 0.9
	parityTol   = 1e-6 // the runtime's value-parity tolerance
	setupReps   = 5    // least set-ups per run; setup_s is their median
	setupSpan   = 1.0  // least seconds of set-ups per run, for cheap set-ups
)

// trainSpec is one training workload: a model and the parallel legs
// that train it on the same batches as the serial reference.
type trainSpec struct {
	model     func() *nn.Model
	legs      []string
	ckptEvery int // 0: no checkpointing
}

var (
	trainData  = trainSpec{model: model.TinyCNNNoBN, legs: []string{"data:2"}}
	trainModel = trainSpec{model: model.Tiny3D, legs: []string{"spatial:2", "filter:2", "pipeline:2"}, ckptEvery: 4}
)

// trainSet is one set-up of a training workload: the compiled model,
// the seeded batches and the parsed plans.
type trainSet struct {
	m       *nn.Model
	batches []dist.Batch
	plans   map[string]dist.Plan
}

// genBatches draws n batches of inputs and labels from seed. The toy
// dataset is cursor-addressed, so the seed picks where in it the
// workload reads; distinct seeds read disjoint batches.
func genBatches(m *nn.Model, n, size int, seed int64) []dist.Batch {
	return data.Toy(m, int64(n*size)).BatchesFrom(int(seed)*n, n, size)
}

// setup builds the model, draws the batches and runs one warm-up step
// on every leg, so lazy set-up is paid before timing starts.
func (s trainSpec) setup(seed int64) (*trainSet, error) {
	m := s.model()
	if _, err := nn.CompileGraph(m); err != nil {
		return nil, err
	}
	ts := &trainSet{m: m, batches: genBatches(m, stepsPerRun, globalBatch, seed), plans: map[string]dist.Plan{}}
	for _, name := range append([]string{"serial"}, s.legs...) {
		pl, err := dist.ParsePlan(name)
		if err != nil {
			return nil, err
		}
		ts.plans[name] = pl
		if _, err := dist.Run(m, ts.batches[:1], pl, dist.WithSeed(seed), dist.WithMomentum(momentum)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return ts, nil
}

// setupMedian sets the workload up at least setupReps times and for
// at least setupSpan seconds, and returns the median set-up time in
// seconds; the last set-up is the one the run keeps. The first sample
// runs from process start.
func setupMedian(setup func() error) (float64, error) {
	var ts []float64
	start := time.Now()
	for len(ts) < setupReps || time.Since(start).Seconds() < setupSpan {
		t0 := time.Now()
		if len(ts) == 0 {
			t0 = processStart
		}
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	fmt.Printf("setup samples: %d, median %.4f s, first (from process start) %.4f s\n", len(ts), median(ts), ts[0])
	return median(ts), nil
}

// legRun is one dist.Run of a leg over the workload's batches.
type legRun struct {
	start  time.Time
	wall   time.Duration
	stamps []time.Time // one per iteration-hook callback
	losses []float64
}

func (r legRun) gaps() []float64 {
	var out []float64
	for i := 1; i < len(r.stamps); i++ {
		out = append(out, ms(r.stamps[i].Sub(r.stamps[i-1])))
	}
	return out
}

// runLeg trains one leg over the set's batches with the workload's
// optimizer and the extra options.
func (ts *trainSet) runLeg(leg string, seed int64, extra ...dist.Option) (legRun, error) {
	var r legRun
	r.stamps = make([]time.Time, 0, len(ts.batches))
	opts := append([]dist.Option{
		dist.WithSeed(seed), dist.WithLR(learnRate), dist.WithMomentum(momentum),
		dist.WithIterHook(func(int, float64) { r.stamps = append(r.stamps, time.Now()) }),
	}, extra...)
	r.start = time.Now()
	res, err := dist.Run(ts.m, ts.batches, ts.plans[leg], opts...)
	r.wall = time.Since(r.start)
	if err != nil {
		return r, fmt.Errorf("%s: %w", leg, err)
	}
	r.losses = res.Losses
	return r, nil
}

// parityErr reports the first loss of got that is not finite or is
// more than parityTol from the serial reference.
func parityErr(leg string, got, ref []float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%s: %d losses, serial has %d", leg, len(got), len(ref))
	}
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); !(d <= parityTol) || math.IsInf(got[i], 0) {
			return fmt.Errorf("%s: iteration %d loss %.12g vs serial %.12g", leg, i, got[i], ref[i])
		}
	}
	return nil
}

// ckptSink hands every checkpoint to an async writer and remembers the
// last state handed over, so the file on disk can be checked against it.
type ckptSink struct {
	dir  string
	w    *ckpt.Writer
	last *ckpt.State
}

func newCkptSink(dir string) *ckptSink { return &ckptSink{dir: dir, w: ckpt.NewWriter(dir)} }

func (c *ckptSink) put(st *ckpt.State) { c.last = st; c.w.Put(st) }

// verify drains the writer and checks that the newest valid file on
// disk encodes to the same bytes as the last state handed over.
func (c *ckptSink) verify() error {
	if err := c.w.Drain(); err != nil {
		return err
	}
	if c.last == nil {
		return fmt.Errorf("no checkpoint was taken")
	}
	got, _, err := ckpt.LatestValid(c.dir)
	if err != nil {
		return err
	}
	a, err := c.last.Encode()
	if err != nil {
		return err
	}
	b, err := got.Encode()
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("checkpoint on disk (iter %d) differs from the last state handed over (iter %d)", got.Iter, c.last.Iter)
	}
	return nil
}

func runTrainData(p params) (*outcome, error)  { return runTraining(p, trainData) }
func runTrainModel(p params) (*outcome, error) { return runTraining(p, trainModel) }

// runTraining is the untraced timed run of a training workload: rounds
// of every parallel leg over the same batches until the time is used,
// each leg checked against the serial reference.
func runTraining(p params, spec trainSpec) (*outcome, error) {
	var ts *trainSet
	setupS, err := setupMedian(func() (err error) {
		ts, err = spec.setup(p.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	ref, err := ts.runLeg("serial", p.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	fail := func(err error) {
		out.failed++
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	if err := parityErr("serial", ref.losses, ref.losses); err != nil {
		fail(err) // non-finite reference loss
	}
	var sink *ckptSink
	if spec.ckptEvery > 0 {
		sink = newCkptSink(p.scratchPath("ckpt"))
		defer sink.w.Close()
	}
	var gaps, rates []float64
	rss := startRSS()
	start := time.Now()
	// Short runs continue until the p90 has ten samples beyond it.
	for time.Since(start) < p.budget(1) || len(gaps) < 10*minBeyond {
		var wall time.Duration
		samples := 0
		for _, leg := range spec.legs {
			var extra []dist.Option
			if sink != nil {
				extra = append(extra, dist.WithCheckpoint(spec.ckptEvery, sink.put))
			}
			out.attempted++
			r, err := ts.runLeg(leg, p.seed, extra...)
			if err == nil {
				err = parityErr(leg, r.losses, ref.losses)
			}
			if err != nil {
				fail(err)
				continue
			}
			wall += r.wall
			samples += globalBatch * len(r.losses)
			gaps = append(gaps, r.gaps()...)
		}
		if samples > 0 {
			rates = append(rates, float64(samples)/wall.Seconds())
		}
		if sink != nil {
			out.attempted++
			if err := sink.verify(); err != nil {
				fail(err)
			}
		}
	}
	tail, ok := percentile(gaps, 0.90)
	if !ok {
		return nil, fmt.Errorf("%d step samples: too few for a p90 with %d beyond it", len(gaps), minBeyond)
	}
	fmt.Printf("samples op_ms_p50=%d step gaps, work_per_s=%d rounds of legs %s\n", len(gaps), len(rates), strings.Join(spec.legs, ","))
	out.metrics["setup_s"] = setupS
	out.metrics["work_per_s"] = median(rates)
	out.metrics["op_ms_p50"] = median(gaps)
	out.metrics["op_ms_tail"] = tail
	if out.metrics["rss_p95_mb"], err = rss.p95(); err != nil {
		return nil, err
	}
	return out, nil
}
