// Package dist is the real partitioned-execution runtime of the ParaDL
// reproduction: it trains CNNs for real — actual forward/backward/SGD
// arithmetic through internal/tensor — with the model or data
// partitioned across in-process PEs exactly as the six parallelization
// strategies of §3 prescribe. Each PE is a goroutine owning its tensor
// shard per the plans in internal/strategy, and all cross-PE traffic
// flows through channel-based message passing (comm.go): gradient
// allreduce for data parallelism, halo exchange for spatial, activation
// allgather for filter, partial-sum allreduce for channel, and stage
// transfers for the pipeline.
//
// Models execute as compiled DAGs (nn.CompileGraph): ResNet-style
// Branch/shortcut layers read their tap point and merge additively
// into the main path under every strategy, with pipeline stage
// boundaries snapped to cuts that keep each residual block whole.
//
// The package exists to close the correctness loop of §4.5.2/§5.2:
// every strategy must reproduce the per-iteration losses of the serial
// baseline value by value (the parity tests pin this to 1e-6), so the
// oracle's projections and the executable semantics can never drift
// apart.
//
// The single entry point is plan-driven:
//
//	res, err := dist.Run(m, batches, dist.Plan{Strategy: core.DataFilter, P1: 4, P2: 2},
//	        dist.WithSeed(7), dist.WithLR(0.05))
//
// Run dispatches through a strategy registry (registry.go) whose
// entries are the grid engines of §3/§3.6:
//
//	serial        — single-PE SGD, the baseline every strategy must match
//	data          — batch sharded over replicas, gradient Allreduce (p2=1 edge of df)
//	spatial       — sample domain sharded, neighbour halo exchange (§3.2; p1=1 edge of ds)
//	filter        — output channels sharded, activation Allgather (§3.4; p1=1 edge of df)
//	channel       — input channels sharded, activation Allreduce (§3.5)
//	pipeline      — contiguous layer stages, GPipe microbatching (§3.3; p1=1 edge of dp)
//	df / ds / dp  — §3.6 hybrids: p1 model-parallel groups × segmented exchange
//
// Plans round-trip through strings ("ds:4x2" ⇄ ParsePlan/String), so
// the advisor and the CLI can select strategies as runtime values.
//
// Every engine runs as a p1×p2 grid (serial is 1×1, channel 1×p)
// through one driver, runGrid. An engine validates its plan, sets up
// each PE (shards, gradient exchangers), and hands the driver two
// things: step, one iteration on the PE's batch shard returning the
// global loss, and placement, where the PE holds every parameter field
// within its group — whole on every rank, split along one axis in rank
// order, or whole on one owning rank (Table 3's partitioning of the
// weights, declared once). The driver owns the rest of the iteration:
// trace marks and the idle span, fault and straggle injection, the hook
// and loss series, checkpoint cadence and emission, and the checkpoint
// barrier, whose checkpoint-put span also covers the state gathers. It
// derives the elastic state from the placement: the velocity re-seed
// of a resumed run carves the canonical velocities with each field's
// cut, and the checkpoint gather inverts the cuts within the result
// rank's group only.
// Communication attributes itself on the trace: the blocking
// collectives of Comm open a collective-wait span and the exchange
// helpers (halo, sync-BN, pipeline transfer) their own phase, so step
// code opens only compute spans.
package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// PEFailure reports the death of one PE mid-run: the failure WithFailAt
// injects, surfaced as the error of the whole (aborted) world. The
// elastic supervisor (RunElastic) matches it with errors.As to tell a
// recoverable PE loss from a configuration error, and measures its
// detection latency from At.
type PEFailure struct {
	PE   int       // world rank of the dead PE
	Iter int       // global iteration it died in
	At   time.Time // when the PE died (stamped at the panic site)
}

func (e *PEFailure) Error() string {
	return fmt.Sprintf("dist: PE %d died at iteration %d", e.PE, e.Iter)
}

// Batch is one training step's input: samples [N, C, spatial...] plus
// integer class labels of length N.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Result reports one training run: the strategy executed, its width,
// and the loss of every iteration — the series the value-parity
// methodology compares across strategies. P1×P2 is the executed plan's
// grid shape — P1 data-parallel groups of P2 model-parallel PEs,
// P = P1·P2 — with the pure strategies on their degenerate edges
// (sequential 1×1, data p×1, channel 1×p, …).
type Result struct {
	Strategy string
	P        int
	P1, P2   int
	Losses   []float64
}

// runSequential is the serial engine behind the registry: single-PE
// training, one optimizer step per batch — the 1×1 grid.
func runSequential(m *nn.Model, batches []Batch, cfg *runConfig) (*Result, error) {
	if err := checkBatches(m, batches); err != nil {
		return nil, err
	}
	return runGrid(m, batches, cfg, "sequential", 1, 1, 0, func(world, _, _ *Comm, net *nn.Network, opt *stepper) (engine, error) {
		tr := world.tr
		return engine{
			step: func(x *tensor.Tensor, labels []int, _ float64) float64 {
				// The explicit forward/loss/backward/step composition is
				// TrainStep(With) verbatim (see nn/exec.go), split so each
				// phase lands on its own span.
				tr.Begin(trace.ComputeForward)
				logits, states := net.Forward(x)
				loss, dLogits := tensor.SoftmaxCrossEntropy(logits, labels)
				tr.Begin(trace.ComputeBackward)
				_, grads := net.Backward(dLogits, states)
				opt.stepNet(net, grads)
				return loss
			},
			place: replicated(net),
		}, nil
	})
}

// newReplica instantiates the model with parameters drawn from seed.
// Two PEs calling this with the same seed hold bit-identical replicas.
func newReplica(m *nn.Model, seed int64) *nn.Network {
	return nn.NewNetwork(m, rand.New(rand.NewSource(seed)))
}

// replica builds this PE's full replica: the usual seed-derived
// initialization, then — when resuming — the canonical checkpoint
// parameters copied over it (Run validated them with checkState). The
// seed init still runs first so the model's RNG stream is consumed
// identically to a fresh run; engines then carve their shards from the
// restored replica exactly as they would from a fresh one, which is
// what makes re-sharding under any plan a non-event.
func (c *runConfig) replica(m *nn.Model) *nn.Network {
	net := newReplica(m, c.seed)
	if c.initState != nil {
		restoreParams(net, c.initState)
	}
	return net
}

// engine is one PE's strategy-specific half of a training iteration,
// built by an engine's setup once the PE holds its shards. step trains
// on this PE's group shard of one batch — x and labels, weighted n_g/B
// in the global loss — and returns the iteration's global loss, which
// the driver reads on the result rank only. place is where the PE holds
// every parameter field within its group (elastic_state.go); the driver
// derives the velocity re-seed of a resumed run and the checkpoint
// gather from it.
type engine struct {
	step  func(x *tensor.Tensor, labels []int, weight float64) float64
	place placement
}

// runGrid spawns the p1×p2 grid (see hybrid.go) and drives every PE
// through the runtime's one iteration loop. World rank g·p2+k is PE k
// of group g, so group.Rank() = k and seg.Rank() = g; the pure
// strategies and the serial baseline are degenerate grids. Each PE gets
// its tracer, its three communicators, a fresh (or restored) full
// replica, and its optimizer, and setup builds its engine from them.
// resultRank selects the world rank whose losses the run reports and
// whose snapshots reach the sink: 0, or group 0's last stage for the
// pipeline grid. On a resumed run the driver seeds each PE's momentum
// with its carve of the canonical velocities before the first step.
//
// The loop is the iteration shell every engine shares: per iteration
// it marks the trace, runs the idle span through fault and straggle
// injection, slices group g's batch shard, runs the engine's step,
// records the loss and fires the hook on the result rank, and on
// checkpoint boundaries gathers, emits, and holds the checkpoint
// barrier. Only the result rank's group gathers: the groups are
// bit-identical replicas of the canonical state.
func runGrid(m *nn.Model, batches []Batch, cfg *runConfig, label string, p1, p2, resultRank int,
	setup func(world, group, seg *Comm, net *nn.Network, opt *stepper) (engine, error)) (*Result, error) {
	groups, segments, err := strategy.HybridGroups(p1, p2)
	if err != nil {
		return nil, err
	}
	losses, err := runWorld(p1*p2, resultRank, func(world *Comm) ([]float64, error) {
		tr := cfg.trace.PE(world.Rank())
		world.tr = tr
		net := cfg.replica(m)
		g, k := world.Rank()/p2, world.Rank()%p2
		group, opt := world.Sub(groups[g]), newStepper(cfg)
		e, err := setup(world, group, world.Sub(segments[k]), net, opt)
		if err != nil {
			return nil, err
		}
		if st := cfg.initState; st != nil && opt.mom != nil && len(st.Vel) > 0 {
			e.place.seedVelocities(opt.mom, st.Vel, k)
		}
		defer tr.End()
		owner := world.Rank() == resultRank
		losses := make([]float64, 0, len(batches))
		for bi := range batches {
			tr.Iter(cfg.startIter + bi)
			tr.Begin(trace.Idle)
			cfg.maybeFail(world.Rank(), bi)
			x, labels, weight := groupShard(&batches[bi], g, p1)
			loss := e.step(x, labels, weight)
			if owner {
				losses = append(losses, loss)
				if cfg.hook != nil {
					cfg.hook(cfg.startIter+bi, loss) // the hook sees the global iteration
				}
			}
			if cfg.snapshotDue(bi) {
				tr.Begin(trace.CheckpointPut)
				if g == resultRank/p2 {
					params, vel := e.place.gather(group, resultRank%p2, opt.mom)
					if owner {
						cfg.emit(m.Name, bi, losses, params, vel)
					}
				}
				// Checkpoint barrier: no PE may start the next iteration
				// until the snapshot is durable, or a failure injected
				// just past the boundary could abort the world mid-gather
				// and lose the checkpoint recovery should resume from.
				world.allReduceScalar(0)
			}
		}
		return losses, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: label, P: p1 * p2, P1: p1, P2: p2, Losses: losses}, nil
}

// runWorld spawns one goroutine per PE, runs body on each, and returns
// resultRank's per-iteration losses. A panic or error on any PE aborts
// the whole world (no deadlocked stragglers) and is reported once.
func runWorld(p, resultRank int, body func(c *Comm) ([]float64, error)) ([]float64, error) {
	w := NewWorld(p)
	results := make([][]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if err, ok := rec.(error); ok {
						if err == errAborted {
							return // a peer already recorded the root cause
						}
						var pf *PEFailure
						if errors.As(err, &pf) {
							// An injected death: keep the typed error so the
							// elastic supervisor can recognize it as
							// recoverable rather than a generic panic.
							w.fail(err)
							return
						}
					}
					w.fail(fmt.Errorf("dist: PE %d panicked: %v", rank, rec))
				}
			}()
			losses, err := body(w.Comm(rank))
			if err != nil {
				w.fail(fmt.Errorf("dist: PE %d: %w", rank, err))
				return
			}
			// A dropped Handle means a nonblocking collective's result was
			// never synchronized back — silently proceeding would train on
			// unreduced gradients, so the misuse fails the world loudly.
			if n := w.pending[rank].Load(); n != 0 {
				w.fail(fmt.Errorf("dist: PE %d finished with %d nonblocking collective handle(s) dropped without Wait", rank, n))
				return
			}
			results[rank] = losses
		}(r)
	}
	wg.Wait()
	if w.err != nil {
		return nil, w.err
	}
	return results[resultRank], nil
}

// checkBatches validates the common preconditions of every Run
// function: the model must compile to an executable graph (Branch/
// shortcut layers included — the DAG executor runs them; only
// malformed taps are rejected) and every batch must match the model's
// input geometry.
func checkBatches(m *nn.Model, batches []Batch) error {
	if _, err := nn.CompileGraph(m); err != nil {
		return fmt.Errorf("dist: model %q does not compile to an executable graph: %w", m.Name, err)
	}
	for i := range batches {
		b := &batches[i]
		if b.X == nil || b.X.Rank() < 2 {
			return fmt.Errorf("dist: batch %d has no activation tensor", i)
		}
		if b.X.Dim(0) != len(b.Labels) {
			return fmt.Errorf("dist: batch %d has %d samples but %d labels", i, b.X.Dim(0), len(b.Labels))
		}
		want := append([]int{b.X.Dim(0), m.InputChannels}, m.InputDims...)
		if !tensor.EqualShapes(b.X.Shape(), want) {
			return fmt.Errorf("dist: batch %d shape %v does not match model input %v", i, b.X.Shape(), want)
		}
	}
	return nil
}

// addInto accumulates src into dst, adopting src when dst is nil.
func addInto(dst, src *tensor.Tensor) *tensor.Tensor {
	if src == nil {
		return dst
	}
	if dst == nil {
		return src
	}
	dst.Add(src)
	return dst
}

// accumulateGrads folds one microbatch's gradients into the running
// per-layer accumulator.
func accumulateGrads(dst *nn.Grads, g nn.Grads) {
	dst.W = addInto(dst.W, g.W)
	dst.B = addInto(dst.B, g.B)
	dst.Gamma = addInto(dst.Gamma, g.Gamma)
	dst.Beta = addInto(dst.Beta, g.Beta)
}
