package dist

import (
	"fmt"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
	"paradl/internal/trace"
)

// weightShard is one PE's slice of a weighted layer's parameters.
type weightShard struct {
	w, b *tensor.Tensor
	rng  strategy.Range
}

// runDataFilter is the shared engine behind the data (p2=1), filter
// (p1=1), and data+filter registry entries: a p1×p2 grid of
// filter-parallel groups joined by segmented cross-group gradient
// exchange.
func runDataFilter(m *nn.Model, batches []Batch, cfg *runConfig, p1, p2 int, label string) (*Result, error) {
	if err := checkGrid(m, batches, p1, p2, label); err != nil {
		return nil, err
	}
	if mf := m.MinFilters(); p2 > 1 && p2 > mf {
		return nil, fmt.Errorf("dist: model %q supports filter width <= min F_l = %d (Table 3), got %d", m.Name, mf, p2)
	}
	rsOK := scatterableInputGrads(m, p2, cfg)
	return runGrid(m, batches, cfg, label, p1, p2, 0, func(world, group, seg *Comm, net *nn.Network, opt *stepper) (engine, error) {
		ex := newGradExchanger(seg, cfg)
		shards, place, err := filterShards(net, group.Rank(), p2)
		if err != nil {
			return engine{}, err
		}
		return engine{
			step: func(x *tensor.Tensor, labels []int, weight float64) float64 {
				return dataFilterStep(group, seg, ex, net, shards, rsOK, x, labels, weight, opt)
			},
			place: place,
		}, nil
	})
}

// scatterableInputGrads marks the sharded layers whose backward input
// gradient may be ReduceScattered instead of Allreduced — the paper's
// footnote-2 filter optimization. It holds for layer l when everything
// between l and the sharded layer below it is element-wise and
// channel-preserving (ReLU), so each PE consumes only its own
// output-channel slice of the gradient: the slice flows through the
// intermediate ReLUs and arrives at the lower layer's shardGrad already
// narrowed, and the chunking (tensor.SplitSizes over the channel axis)
// coincides with strategy.FilterShards by construction. Windowed layers
// (Pool) and segment-synchronized BN need the full-width gradient and
// break the chain.
func scatterableInputGrads(m *nn.Model, p2 int, cfg *runConfig) []bool {
	rsOK := make([]bool, m.G())
	if cfg.arInputGrad || p2 <= 1 {
		return rsOK
	}
	for l := range m.Layers {
		if m.Layers[l].Branch {
			// A merge point's gradient feeds two consumers (the main
			// path and the shortcut) and every tap adds a second
			// gradient stream, so no narrowing chain survives a
			// residual block: branch models keep the full-width
			// allreduce everywhere.
			return rsOK
		}
	}
	prevSharded := false // a sharded layer lies below, with…
	chainOK := false     // …only ReLUs in between
	for l := range m.Layers {
		switch m.Layers[l].Kind {
		case nn.Conv, nn.FC:
			rsOK[l] = prevSharded && chainOK
			prevSharded, chainOK = true, true
		case nn.ReLU:
			// channel-preserving, element-wise: keeps the chain intact
		default:
			chainOK = false
		}
	}
	return rsOK
}

// filterShards carves rank's output-channel slice out of every weighted
// layer of an (identically seeded) full replica and returns it with the
// PE's placement: weights and biases split along axis 0 (F), the
// replicated BN parameters whole. The slices are the PE's authoritative
// parameters from here on; the replica keeps only the BN parameters
// live.
func filterShards(net *nn.Network, rank, p int) ([]*weightShard, placement, error) {
	layers := net.Model.Layers
	shards := make([]*weightShard, len(layers))
	place := replicated(net)
	for l := range layers {
		spec := &layers[l]
		if spec.Kind != nn.Conv && spec.Kind != nn.FC {
			continue
		}
		rngs, err := strategy.FilterShards(spec, p)
		if err != nil {
			return nil, nil, err
		}
		rng := rngs[rank]
		if p == 1 {
			// Degenerate width (the data-parallel grid edge): the shard
			// IS the whole parameter — alias it instead of Narrow-copying
			// every weight tensor per replica.
			shards[l] = &weightShard{w: net.Params[l].W, b: net.Params[l].B, rng: rng}
			continue
		}
		shards[l] = &weightShard{
			w:   place.shard(l, fieldW, 0, rng.Start, rng.Size()),
			b:   place.shard(l, fieldB, 0, rng.Start, rng.Size()),
			rng: rng,
		}
	}
	return shards, place, nil
}

// shardGrad returns this PE's output-channel slice of the loss
// gradient — the whole tensor when the group is singleton (the
// data-parallel grid edge), avoiding a full-width Narrow copy.
func shardGrad(dy *tensor.Tensor, sh *weightShard, group *Comm) *tensor.Tensor {
	if group.Size() == 1 {
		return dy
	}
	return dy.Narrow(1, sh.rng.Start, sh.rng.Size())
}

// dataFilterStep runs one SGD iteration of the data×filter grid on this
// group's batch shard x, weighted n_g/B in the global loss. Scaling the
// loss gradient by the weight up front makes every local gradient
// exactly this group's contribution to the full-batch mean gradient, so
// the cross-group exchange is a plain segmented sum. Batch norm, whose
// full activation is replicated within the group, synchronizes across
// the segment — one PE per group covers the global batch exactly once,
// and every segment reduces in the same group order, so all PEs agree
// bit-for-bit.
//
// Backward, the input gradient is Allreduced to full width — except at
// the rsOK layers, where it is ReduceScattered so each PE receives only
// its own channel slice (footnote 2): the slice rides through the
// intermediate ReLUs (sliced against the matching slice of their stored
// input) and is consumed by the sharded layer below without ever
// materializing the full tensor.
//
// The cross-group exchange is bucketed (ex): each sharded layer's
// weight/bias gradients are pushed the moment its backward completes,
// so with overlap on the segment allreduce of layer l hides behind the
// backward compute of the layers below it.
func dataFilterStep(group, seg *Comm, ex *gradExchanger, net *nn.Network, shards []*weightShard, rsOK []bool, x *tensor.Tensor, labels []int, weight float64, step *stepper) float64 {
	tr := group.tr
	layers := net.Model.Layers
	gph := net.Graph()
	g := len(layers)
	states := make([]*nn.LayerState, g)
	bnSync := make([]bool, g)
	tr.Begin(trace.ComputeForward)
	cur := gph.ForwardRange(0, g, x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		spec := &layers[l]
		sh := shards[l]
		switch {
		case spec.Kind == nn.Conv:
			// Shortcut convolutions shard exactly like main-path ones:
			// the graph walk routes xin from the tap and merges the
			// allgathered output into the main path.
			cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
			states[l] = &nn.LayerState{X: xin}
			y := tensor.ConvForward(xin, sh.w, sh.b, cs)
			return group.AllGather(y, 1)
		case spec.Kind == nn.FC:
			n := xin.Dim(0)
			flat := xin.Reshape(n, xin.Len()/n)
			states[l] = &nn.LayerState{X: xin}
			y := tensor.FCForward(flat, sh.w, sh.b)
			return group.AllGather(y, 1)
		case spec.Kind == nn.BatchNorm && seg.Size() > 1:
			y, st := syncBNForward(seg, xin, net.Params[l].Gamma, net.Params[l].Beta)
			states[l] = &nn.LayerState{X: xin, BN: st}
			bnSync[l] = true
			return y
		default:
			// Channel-wise layers run replicated on the group's full
			// activation and stay bit-identical across the group.
			y, st := net.ForwardLayer(l, xin)
			states[l] = st
			return y
		}
	})
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	if weight != 1 {
		dy.Scale(weight)
	}
	tr.Begin(trace.ComputeBackward)

	grads := make([]nn.Grads, g)
	shardGrads := make([]weightShard, g)
	dySliced := false // the main-path gradient holds only this PE's channel slice
	gph.BackwardRange(0, g, dy, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		spec := &layers[l]
		sh := shards[l]
		switch {
		case spec.Kind == nn.Conv:
			cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
			xl := states[l].X
			dySh := dy
			if !dySliced {
				dySh = shardGrad(dy, sh, group)
			}
			dw, db := tensor.ConvBackwardWeight(dySh, xl, sh.w.Shape(), cs)
			shardGrads[l] = weightShard{w: dw, b: db}
			if ex != nil {
				ex.push(dw, db)
			}
			if gph.Src(l) < 0 {
				// No consumer for the input gradient — the bottom layer,
				// or a shortcut tapping the network input: skip the data
				// backward and its group-wide exchange.
				return nil
			}
			dxPart := tensor.ConvBackwardData(dySh, sh.w, xl.Shape(), cs)
			out, sliced := exchangeInputGrad(group, dxPart, rsOK[l])
			if !spec.Branch {
				dySliced = sliced
			}
			return out
		case spec.Kind == nn.FC:
			xl := states[l].X
			n := xl.Dim(0)
			flat := xl.Reshape(n, xl.Len()/n)
			dySh := dy
			if !dySliced {
				dySh = shardGrad(dy, sh, group)
			}
			dxPart, dw, db := tensor.FCBackward(dySh, flat, sh.w, xl.Shape())
			shardGrads[l] = weightShard{w: dw, b: db}
			if ex != nil {
				ex.push(dw, db)
			}
			if gph.Src(l) < 0 {
				return nil
			}
			out, sliced := exchangeInputGrad(group, dxPart, rsOK[l])
			dySliced = sliced
			return out
		case bnSync[l]:
			dx, dgamma, dbeta := syncBNBackward(seg, dy, net.Params[l].Gamma, states[l].BN)
			grads[l] = nn.Grads{Gamma: dgamma, Beta: dbeta}
			return dx
		case dySliced:
			// Only ReLU can sit inside a reduce-scatter chain
			// (scatterableInputGrads): backpropagate the slice against
			// the matching channel slice of the stored input.
			if spec.Kind != nn.ReLU {
				panic(fmt.Sprintf("dist: layer %d (%v) reached with a sliced gradient; scatterableInputGrads admitted a non-ReLU chain", l, spec.Kind))
			}
			return tensor.ReLUBackward(dy, channelChunk(states[l].X, group))
		default:
			dx, gr := net.BackwardLayer(l, dy, states[l])
			grads[l] = gr
			return dx
		}
	})

	// Cross-group gradient exchange (§4.5.1, segmented): every shard
	// gradient is this group's batch-shard contribution to the global
	// mean gradient and sums over the segment, in the size-bounded
	// buckets pushed above as each layer's backward completed — drain is
	// the barrier that synchronizes every in-flight bucket before the
	// optimizer step. Within a group the exchange is free (filter shards
	// are exact for their own filters). No other parameters need
	// traffic: every Conv/FC is sharded, the parameterless layers
	// contribute empty grads, and BN — the only replicated parameterized
	// layer — is segment-synchronized whenever the segment is wider than
	// one, so its gradients are already global. With p1=1 — pure filter
	// — the segment is singleton and ex is nil: no exchange at all.
	if ex != nil {
		ex.drain()
	}
	step.stepNet(net, grads)
	for l := range shards {
		if shards[l] == nil {
			continue
		}
		step.step(shards[l].w, shardGrads[l].w)
		step.step(shards[l].b, shardGrads[l].b)
	}
	return seg.AllReduceScalar(loss * weight)
}

// exchangeInputGrad performs the group-wide input-gradient exchange of
// one sharded layer's backward pass: a full-width Allreduce by default,
// or — when the footnote-2 precondition holds for this layer — a
// ReduceScatter along the channel axis that leaves each PE exactly the
// slice the layer below will consume. Both take ownership of dxPart.
func exchangeInputGrad(group *Comm, dxPart *tensor.Tensor, rs bool) (*tensor.Tensor, bool) {
	if rs && group.Size() > 1 {
		return group.ReduceScatterSum(dxPart, 1), true
	}
	return group.AllReduceSum(dxPart), false
}

// channelChunk returns this rank's canonical chunk of x along the
// channel axis — the region a ReduceScattered gradient corresponds to.
func channelChunk(x *tensor.Tensor, group *Comm) *tensor.Tensor {
	p, r := group.Size(), group.Rank()
	off := tensor.SplitOffsets(x.Dim(1), p)[r]
	return x.Narrow(1, off, tensor.SplitSizes(x.Dim(1), p)[r])
}

// runChannel executes channel parallelism (§3.5): every weighted
// layer's input channels are sharded, each PE convolves its channel
// slice with its weight slice, and the partial outputs are summed by
// Allreduce before the bias is applied exactly once. Layers with fewer
// channels than PEs — in practice the first layer, which the paper also
// leaves unsplit (§4.2) — run replicated. It is the 1×p grid; the
// registry guarantees p >= 1 via Plan.Validate.
func runChannel(m *nn.Model, batches []Batch, cfg *runConfig, p int) (*Result, error) {
	if mc := m.MinChannels(); p > 1 && p > mc {
		return nil, fmt.Errorf("dist: model %q supports channel width <= min C_l = %d (Table 3), got p=%d", m.Name, mc, p)
	}
	if err := checkBatches(m, batches); err != nil {
		return nil, err
	}
	return runGrid(m, batches, cfg, "channel", 1, p, 0, func(world, _, _ *Comm, net *nn.Network, opt *stepper) (engine, error) {
		shards, place, err := channelShards(net, world.Rank(), p)
		if err != nil {
			return engine{}, err
		}
		return engine{
			step: func(x *tensor.Tensor, labels []int, _ float64) float64 {
				return channelStep(world, net, shards, x, labels, opt)
			},
			place: place,
		}, nil
	})
}

// channelShards carves rank's input-channel slice of every weighted
// layer wide enough to split and returns it with the PE's placement:
// weights split along axis 1 (C), biases — stepped in lockstep on every
// PE — and narrower layers, which keep shards[l] == nil and run
// replicated, whole. FC weights are sliced by channel blocks of the
// flattened input (the layer is the paper's kernel-equals-input
// convolution, so a channel is a contiguous run of vol(In) columns).
func channelShards(net *nn.Network, rank, p int) ([]*weightShard, placement, error) {
	layers := net.Model.Layers
	shards := make([]*weightShard, len(layers))
	place := replicated(net)
	if p == 1 {
		return shards, place, nil // degenerate width: run every layer replicated
	}
	for l := range layers {
		spec := &layers[l]
		if (spec.Kind != nn.Conv && spec.Kind != nn.FC) || spec.C < p {
			continue
		}
		rngs, err := strategy.ChannelShards(spec, p)
		if err != nil {
			return nil, nil, err
		}
		rng := rngs[rank]
		off, n := rng.Start, rng.Size()
		if spec.Kind == nn.FC {
			vol := int(spec.InSize()) / spec.C
			off, n = off*vol, n*vol
		}
		shards[l] = &weightShard{w: place.shard(l, fieldW, 1, off, n), rng: rng}
	}
	return shards, place, nil
}

// channelStep runs one channel-parallel SGD iteration. The graph walk
// routes shortcut convolutions from their taps and merges their output
// into the main path; a sharded shortcut convolves its input-channel
// slice of the tap activation like any other sharded layer.
func channelStep(c *Comm, net *nn.Network, shards []*weightShard, x *tensor.Tensor, labels []int, step *stepper) float64 {
	tr := c.tr
	layers := net.Model.Layers
	gph := net.Graph()
	g := len(layers)
	states := make([]*nn.LayerState, g)
	tr.Begin(trace.ComputeForward)
	cur := gph.ForwardRange(0, g, x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		spec := &layers[l]
		sh := shards[l]
		switch {
		case spec.Kind == nn.Conv && sh != nil:
			cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
			xSh := xin.Narrow(1, sh.rng.Start, sh.rng.Size())
			states[l] = &nn.LayerState{X: xSh}
			part := tensor.ConvForward(xSh, sh.w, nil, cs)
			y := c.AllReduceSum(part)
			tensor.AddBias(y, net.Params[l].B)
			return y
		case spec.Kind == nn.FC && sh != nil:
			xSh := xin.Narrow(1, sh.rng.Start, sh.rng.Size())
			n := xSh.Dim(0)
			flat := xSh.Reshape(n, xSh.Len()/n)
			states[l] = &nn.LayerState{X: xSh}
			part := tensor.FCForward(flat, sh.w, nil)
			y := c.AllReduceSum(part)
			tensor.AddBias(y, net.Params[l].B)
			return y
		default:
			// Replicated layer (channel-wise, or too narrow to split):
			// full activation, identical on every PE.
			y, st := net.ForwardLayer(l, xin)
			states[l] = st
			return y
		}
	})
	loss, dy := tensor.SoftmaxCrossEntropy(cur, labels)
	tr.Begin(trace.ComputeBackward)

	grads := make([]nn.Grads, g)
	shardGrads := make([]weightShard, g)
	gph.BackwardRange(0, g, dy, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		spec := &layers[l]
		sh := shards[l]
		switch {
		case spec.Kind == nn.Conv && sh != nil:
			cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
			xSh := states[l].X
			dxSh := tensor.ConvBackwardData(dy, sh.w, xSh.Shape(), cs)
			dw, db := tensor.ConvBackwardWeight(dy, xSh, sh.w.Shape(), cs)
			shardGrads[l] = weightShard{w: dw, b: db}
			return c.AllGather(dxSh, 1)
		case spec.Kind == nn.FC && sh != nil:
			xSh := states[l].X
			n := xSh.Dim(0)
			flat := xSh.Reshape(n, xSh.Len()/n)
			dxSh, dw, db := tensor.FCBackward(dy, flat, sh.w, xSh.Shape())
			shardGrads[l] = weightShard{w: dw, b: db}
			return c.AllGather(dxSh, 1)
		default:
			dx, gr := net.BackwardLayer(l, dy, states[l])
			grads[l] = gr
			return dx
		}
	})

	// Weight-shard gradients are exact (dy was global); the bias
	// gradient Σdy is identical on every PE, so the replicated bias
	// steps in lockstep without any exchange.
	step.stepNet(net, grads)
	for l := range shards {
		if shards[l] == nil {
			continue
		}
		step.step(shards[l].w, shardGrads[l].w)
		step.step(net.Params[l].B, shardGrads[l].b)
	}
	return loss
}
