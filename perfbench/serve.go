package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paradl/internal/serve"
)

const (
	// refRate is the offered rate (req/s) at which latency is measured:
	// about a sixth of the closed-loop capacity measured on the host the
	// benchmark was tuned on (README, "plan-serve discipline"). At that
	// load the planner is mostly idle, so latency is service time rather
	// than queueing; throughput under load is work_per_s.
	refRate         = 1000
	warmSeconds     = 2.0 // unmeasured traffic at refRate before it is timed
	refShare        = 0.7 // share of --seconds measured at the reference rate
	serveRounds     = 5   // rounds of one reference-rate stretch and one capacity sample
	capacitySeconds = 1.0 // length of one capacity sample
)

// serveOp is one request of the open-loop schedule.
type serveOp struct {
	due  time.Duration // offset from the schedule's start
	path string
	body []byte
	key  string // canonical key: equal keys must get equal bytes
	kind string // "hit", "miss" or "sweep"
}

var (
	paperModels  = []string{"resnet50", "resnet152", "vgg16", "cosmoflow"}
	popularGPUs  = []int{16, 64, 256, 1024}
	popularBatch = []int{16, 32}
)

// request is the subset of the planner's wire request the benchmark
// sends. A /sweep leaves the widths to the planner's default grid.
type request struct {
	Model    string `json:"model"`
	GPUs     int    `json:"gpus,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	D        int64  `json:"d,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

func (r request) op(path, kind string) serveOp {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return serveOp{path: path, body: b, kind: kind,
		key: fmt.Sprintf("%s|%s|%d|%d|%d|%s", path, r.Model, r.GPUs, r.Batch, r.D, r.Strategy)}
}

// popularOps is the fixed popular key space: /advise and /project for
// every paper model × GPU count × per-GPU batch. The workload's Zipf
// draws pick from it in this order.
func popularOps() []serveOp {
	var out []serveOp
	for _, m := range paperModels {
		for _, g := range popularGPUs {
			for _, b := range popularBatch {
				out = append(out, request{Model: m, GPUs: g, Batch: b}.op("/advise", "hit"))
				out = append(out, request{Model: m, GPUs: g, Batch: b, Strategy: popularStrategy(m)}.op("/project", "hit"))
			}
		}
	}
	return out
}

// popularStrategy is the strategy the popular /project keys ask for:
// CosmoFlow's samples fit only under data+spatial (Fig. 4).
func popularStrategy(model string) string {
	if model == "cosmoflow" {
		return "ds"
	}
	return "data"
}

// opGen draws ops from a seed: Poisson arrivals at rate, about 85%
// popular keys (Zipf), 13% unique /advise and /project keys and 2%
// unique /sweep keys. Unique keys carry a dataset size no other op of
// the run uses; nextD is shared by every generator of a run.
type opGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	popular []serveOp
	rate, t float64
	nextD   *int64
}

func newOpGen(seed int64, rate float64, popular []serveOp, nextD *int64) *opGen {
	rng := rand.New(rand.NewSource(seed))
	return &opGen{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(popular)-1)),
		popular: popular, rate: rate, nextD: nextD}
}

func (g *opGen) next() serveOp {
	rng := g.rng
	g.t += rng.ExpFloat64() / g.rate
	var op serveOp
	switch u := rng.Float64(); {
	case u < 0.85:
		op = g.popular[g.zipf.Uint64()]
	case u < 0.98:
		*g.nextD++
		r := request{Model: paperModels[rng.Intn(len(paperModels))], GPUs: popularGPUs[rng.Intn(len(popularGPUs))],
			Batch: popularBatch[rng.Intn(len(popularBatch))], D: *g.nextD}
		if rng.Intn(2) == 0 {
			op = r.op("/advise", "miss")
		} else {
			r.Strategy = popularStrategy(r.Model)
			op = r.op("/project", "miss")
		}
	default:
		*g.nextD++
		op = request{Model: paperModels[rng.Intn(len(paperModels))], Batch: popularBatch[rng.Intn(len(popularBatch))],
			D: *g.nextD}.op("/sweep", "sweep")
	}
	op.due = time.Duration(g.t * float64(time.Second))
	return op
}

// genServeOps draws the open-loop schedule of one rate: every op of
// the seed's generator due before dur.
func genServeOps(seed int64, rate float64, dur time.Duration, popular []serveOp, nextD *int64) []serveOp {
	g := newOpGen(seed, rate, popular, nextD)
	var out []serveOp
	for {
		op := g.next()
		if op.due >= dur {
			return out
		}
		out = append(out, op)
	}
}

// opResult is what happened to one scheduled op.
type opResult struct {
	lag    time.Duration // generator lateness: handed to a worker − due
	lat    time.Duration // completion − due; counts queueing behind stalls
	status int
	err    error
	sum    [32]byte // SHA-256 of the response body
}

func (r opResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// loopStats summarizes one open-loop schedule.
type loopStats struct {
	start          time.Time // the schedule's zero
	results        []opResult
	maxOutstanding int // most ops due but not complete
}

// openLoop issues ops at their due times from one generator to at most
// workers concurrent callers of do, whatever the callers' progress:
// the queue between them grows when the system falls behind. Each
// op's latency is timed from its due time.
func openLoop(ops []serveOp, workers int, do func(serveOp) (int, []byte, error)) loopStats {
	st := loopStats{results: make([]opResult, len(ops))}
	queue := make(chan int, len(ops)) // sized to the number of sends
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	st.start = start
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				code, body, err := do(ops[i])
				r := &st.results[i]
				r.lat = time.Since(start) - ops[i].due
				r.status, r.err, r.sum = code, err, sha256.Sum256(body)
				done.Add(1)
			}
		}()
	}
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		st.results[i].lag = time.Since(start) - ops[i].due
		st.maxOutstanding = max(st.maxOutstanding, i+1-int(done.Load()))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return st
}

// latenciesMS returns each op's latency in ms, +Inf for a failed op:
// a failure misses any latency limit.
func (st loopStats) latenciesMS() []float64 {
	out := make([]float64, len(st.results))
	for i, r := range st.results {
		out[i] = ms(r.lat)
		if !r.ok() {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// planner is an in-process paraserve on a loopback port plus a client
// limited to nproc keep-alive connections.
type planner struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	conns  int
	bodies map[string][32]byte // canonical key → first response body hash
}

func startPlanner() (*planner, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	pl := &planner{
		srv:    serve.New(),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		conns:  conns,
		bodies: map[string][32]byte{},
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
	}
	pl.http = &http.Server{Handler: pl.srv.Handler()}
	go func() { pl.served <- pl.http.Serve(ln) }()
	return pl, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (pl *planner) stop() error {
	pl.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := pl.http.Shutdown(ctx)
	if serr := <-pl.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (pl *planner) do(op serveOp) (int, []byte, error) {
	resp, err := pl.client.Post(pl.base+op.path, "application/json", bytes.NewReader(op.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// check counts the failed ops of a schedule: a non-200 answer, a
// transport error, or a body that differs from an earlier answer for
// the same canonical key (a hit must return the miss's bytes).
func (pl *planner) check(ops []serveOp, st loopStats) (failed int) {
	for i, r := range st.results {
		err := r.err
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("%s %s: status %d", ops[i].path, ops[i].body, r.status)
		}
		if err == nil {
			if prev, seen := pl.bodies[ops[i].key]; !seen {
				pl.bodies[ops[i].key] = r.sum
			} else if prev != r.sum {
				err = fmt.Errorf("%s %s: response differs from the first one for its key", ops[i].path, ops[i].body)
			}
		}
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintln(os.Stderr, "check failed:", err)
			}
		}
	}
	return failed
}

// warm sends every popular key once, sequentially, so the timed
// schedules start with a warm cache and recorded miss bodies.
func (pl *planner) warm(popular []serveOp) error {
	st := openLoop(popular, 1, pl.do)
	if n := pl.check(popular, st); n > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", n, len(popular))
	}
	return nil
}

// servePhase is one open-loop schedule and its outcome.
type servePhase struct {
	ops    []serveOp
	st     loopStats
	failed int
}

func (pl *planner) phase(seed int64, rate, secs float64, popular []serveOp, nextD *int64) servePhase {
	ops := genServeOps(seed, rate, time.Duration(secs*float64(time.Second)), popular, nextD)
	st := openLoop(ops, pl.conns, pl.do)
	return servePhase{ops: ops, st: st, failed: pl.check(ops, st)}
}

// byKind groups the phase's latencies (ms, +Inf for a failed op) by op
// kind.
func (ph servePhase) byKind() map[string][]float64 {
	lat := ph.st.latenciesMS()
	by := map[string][]float64{}
	for i, op := range ph.ops {
		by[op.kind] = append(by[op.kind], lat[i])
	}
	return by
}

// servePlanner sets the planner up as often as setupMedian asks
// (listen, serve, warm the cache) and keeps the last one.
func servePlanner() (*planner, []serveOp, float64, error) {
	popular := popularOps()
	var pl *planner
	setupS, err := setupMedian(func() error {
		if pl != nil {
			if err := pl.stop(); err != nil {
				return err
			}
		}
		var err error
		if pl, err = startPlanner(); err != nil {
			return err
		}
		return pl.warm(popular)
	})
	if err != nil && pl != nil {
		pl.stop()
	}
	return pl, popular, setupS, err
}

// runPlanServe is the untraced timed run of plan-serve: unmeasured
// warm-up traffic, then rounds of one stretch at the reference rate and
// one closed-loop capacity sample.
func runPlanServe(p params) (*outcome, error) {
	pl, popular, setupS, err := servePlanner()
	if err != nil {
		return nil, err
	}
	defer pl.stop()
	out := &outcome{metrics: map[string]float64{}}
	nextD := 1_000_000 + p.seed%1000*1_000_000

	rss := startRSS()
	warm := pl.phase(p.seed-1, refRate, warmSeconds, popular, &nextD)
	out.attempted += len(warm.ops)
	out.failed += warm.failed
	// The reference-rate stretches and the capacity samples alternate,
	// so a slow spell of the host falls on both rather than on one.
	var lat, lags, caps []float64
	by := map[string][]float64{}
	for k := int64(0); k < serveRounds; k++ {
		ref := pl.phase(p.seed*serveRounds+k, refRate, p.seconds*refShare/serveRounds, popular, &nextD)
		out.attempted += len(ref.ops)
		out.failed += ref.failed
		lat = append(lat, ref.st.latenciesMS()...)
		for kind, xs := range ref.byKind() {
			by[kind] = append(by[kind], xs...)
		}
		for _, r := range ref.st.results {
			lags = append(lags, ms(r.lag))
		}

		g := newOpGen(p.seed*serveRounds+k+1_000_000, 1, popular, &nextD)
		n, el, failed := pl.saturate(g, time.Duration(capacitySeconds*float64(time.Second)))
		out.attempted += n
		out.failed += failed
		caps = append(caps, float64(n)/el.Seconds())
	}
	// The tail is set by the requests that compute: the misses and
	// sweeps. A change that speeds hits by slowing them shows here,
	// however far apart the two latency bands lie.
	computed := append(by["miss"], by["sweep"]...)
	fmt.Printf("rate %d req/s: %d requests, p50 %.3f ms, median by kind: hit %.3f miss %.3f sweep %.3f ms, lag p50 %.3f ms\n",
		refRate, len(lat), median(lat), median(by["hit"]), median(by["miss"]), median(by["sweep"]), median(lags))
	fmt.Printf("capacity samples %.0f req/s\n", caps)
	fmt.Printf("samples op_ms_p50=%d requests, op_ms_tail=%d misses and sweeps, at %d req/s\n", len(lat), len(computed), refRate)
	out.metrics["setup_s"] = setupS
	out.metrics["work_per_s"] = median(caps)
	out.metrics["op_ms_p50"] = median(lat)
	out.metrics["op_ms_tail"] = median(computed)
	if out.metrics["rss_p95_mb"], err = rss.p95(); err != nil {
		return nil, err
	}
	return out, nil
}

// saturate draws ops from g and sends them back to back over every
// connection until dur has passed — a closed loop that keeps the
// planner busy — and returns how many completed, the elapsed time, and
// how many of those failed. The draws' due times are ignored.
func (pl *planner) saturate(g *opGen, dur time.Duration) (n int, elapsed time.Duration, failed int) {
	var (
		mu  sync.Mutex
		ops []serveOp
		st  = loopStats{start: time.Now()}
		wg  sync.WaitGroup
	)
	for w := 0; w < pl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(st.start) < dur {
				mu.Lock()
				op := g.next()
				mu.Unlock()
				code, body, err := pl.do(op)
				r := opResult{lat: time.Since(st.start), status: code, err: err, sum: sha256.Sum256(body)}
				mu.Lock()
				ops = append(ops, op)
				st.results = append(st.results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(st.start)
	return len(ops), elapsed, pl.check(ops, st)
}
