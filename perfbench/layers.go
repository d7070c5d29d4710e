package main

import (
	"math/rand"
	"time"

	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// tensorClasses are the kernel groups the tensor.* metrics sum.
var tensorClasses = []string{"conv_fwd", "conv_bwd_data", "conv_bwd_weight", "fc", "pool", "elementwise"}

// replayNet is one model instantiated for the layer replay, at the
// per-PE shard of its workload: the global batch split over 2 PEs.
type replayNet struct {
	m      *nn.Model
	net    *nn.Network
	opt    *nn.Momentum
	x      *tensor.Tensor
	labels []int
}

// pass runs one forward/backward/update of the network through nn,
// one span per layer call, then replays every kernel those calls ran
// directly through tensor on the same inputs, one span per kernel
// call. It adds the kernel times to kern, the per-layer times to layer,
// and returns the nn time of forward plus backward (graph walk
// included), the matching kernel time, and the pass's conv FLOPs.
func (r *replayNet) pass(sp *spans, parent int, layer map[string][]float64, kern map[string]float64) (nnTime, kernTime time.Duration, convFLOPs float64) {
	g := len(r.m.Layers)
	xs := make([]*tensor.Tensor, g)
	dys := make([]*tensor.Tensor, g)
	states := make([]*nn.LayerState, g)
	grads := make([]nn.Grads, g)
	prefix := "nn." + r.m.Name + "."
	timed := func(name string, parent int, f func()) time.Duration {
		t0 := time.Now()
		f()
		t1 := time.Now()
		sp.add(name, parent, t0, t1)
		return t1.Sub(t0)
	}

	pid := sp.begin(prefix+"pass", parent)
	walkStart := time.Now()
	fid := sp.begin(prefix+"forward", pid)
	logits := r.net.Graph().ForwardRange(0, g, r.x, func(l int, xin *tensor.Tensor) *tensor.Tensor {
		xs[l] = xin
		var y *tensor.Tensor
		d := timed(prefix+r.m.Layers[l].Name+".fw", fid, func() { y, states[l] = r.net.ForwardLayer(l, xin) })
		layer[prefix+r.m.Layers[l].Name+".fw_ms"] = append(layer[prefix+r.m.Layers[l].Name+".fw_ms"], ms(d))
		return y
	})
	sp.end(fid)
	_, dLogits := tensor.SoftmaxCrossEntropy(logits, r.labels)
	bid := sp.begin(prefix+"backward", pid)
	r.net.Graph().BackwardRange(0, g, dLogits, func(l int, dy *tensor.Tensor) *tensor.Tensor {
		dys[l] = dy
		var dx *tensor.Tensor
		d := timed(prefix+r.m.Layers[l].Name+".bw", bid, func() { dx, grads[l] = r.net.BackwardLayer(l, dy, states[l]) })
		layer[prefix+r.m.Layers[l].Name+".bw_ms"] = append(layer[prefix+r.m.Layers[l].Name+".bw_ms"], ms(d))
		return dx
	})
	sp.end(bid)
	nnTime = time.Since(walkStart)
	uid := sp.begin(prefix+"update", pid)
	for l := range r.m.Layers {
		p, gr := r.net.Params[l], grads[l]
		if p.W == nil {
			continue
		}
		d := timed(prefix+r.m.Layers[l].Name+".wu", uid, func() {
			r.opt.Update(p.W, gr.W)
			r.opt.Update(p.B, gr.B)
		})
		layer[prefix+r.m.Layers[l].Name+".wu_ms"] = append(layer[prefix+r.m.Layers[l].Name+".wu_ms"], ms(d))
	}
	sp.end(uid)
	sp.end(pid)

	rid := sp.begin("tensor."+r.m.Name+".replay", parent)
	// inWalk is whether the kernel replays part of the forward/backward
	// walk that nnTime covers; the SGDStep replay of the update does not.
	inWalk := true
	kernel := func(class string, f func()) {
		d := timed("tensor."+class, rid, f)
		kern[class] += ms(d)
		if inWalk {
			kernTime += d
		}
	}
	for l := range r.m.Layers {
		spec, p, x, dy := &r.m.Layers[l], r.net.Params[l], xs[l], dys[l]
		switch spec.Kind {
		case nn.Conv:
			cs := tensor.ConvSpec{Stride: spec.Stride, Pad: spec.Pad}
			var y *tensor.Tensor
			kernel("conv_fwd", func() { y = tensor.ConvForward(x, p.W, p.B, cs) })
			kernel("conv_bwd_data", func() { tensor.ConvBackwardData(dy, p.W, x.Shape(), cs) })
			kernel("conv_bwd_weight", func() { tensor.ConvBackwardWeight(dy, x, p.W.Shape(), cs) })
			// Each of the three kernels does N·F·C·∏K·∏Out multiply-adds.
			convFLOPs += 3 * 2 * float64(y.Len()) * float64(p.W.Len()/p.W.Dim(0))
		case nn.Pool:
			ps := tensor.PoolSpec{Kind: spec.PoolKind, Window: spec.Kernel, Stride: spec.Stride, Pad: spec.Pad}
			kernel("pool", func() {
				_, arg := tensor.PoolForward(x, ps)
				tensor.PoolBackward(dy, x.Shape(), ps, arg)
			})
		case nn.FC:
			flat := x.Reshape(x.Dim(0), x.Len()/x.Dim(0))
			kernel("fc", func() {
				tensor.FCForward(flat, p.W, p.B)
				tensor.FCBackward(dy, flat, p.W, x.Shape())
			})
		case nn.ReLU:
			kernel("elementwise", func() {
				tensor.ReLUForward(x)
				tensor.ReLUBackward(dy, x)
			})
		}
	}
	kernel("elementwise", func() { tensor.SoftmaxCrossEntropy(logits, r.labels) })
	inWalk = false
	for l := range r.m.Layers {
		p, gr := r.net.Params[l], grads[l]
		if p.W == nil {
			continue
		}
		w, b := p.W.Clone(), p.B.Clone()
		kernel("elementwise", func() {
			tensor.SGDStep(w, gr.W, learnRate)
			tensor.SGDStep(b, gr.B, learnRate)
		})
	}
	sp.end(rid)
	return nnTime, kernTime, convFLOPs
}

// traceLayers replays both training models layer by layer until its
// share of the run is used, and reports the per-layer nn times, the
// per-class tensor kernel times and the executor overhead as medians
// over the passes.
func traceLayers(p params, sp *spans, parent int, m map[string]float64) {
	var nets []*replayNet
	for _, mk := range []func() *nn.Model{model.TinyCNNNoBN, model.Tiny3D} {
		mdl := mk()
		b := genBatches(mdl, 1, globalBatch/2, p.seed)[0]
		nets = append(nets, &replayNet{m: mdl, net: nn.NewNetwork(mdl, rand.New(rand.NewSource(p.seed))),
			opt: nn.NewMomentum(learnRate, momentum), x: b.X, labels: b.Labels})
	}
	layer := map[string][]float64{}
	kernels := map[string][]float64{}
	var overhead, gflops []float64
	start := time.Now()
	for pass := 0; pass < 3 || time.Since(start) < p.budget(layerShare); pass++ {
		kern := map[string]float64{}
		var nnT, kernT time.Duration
		var flops float64
		for _, r := range nets {
			a, b, f := r.pass(sp, parent, layer, kern)
			nnT, kernT, flops = nnT+a, kernT+b, flops+f
		}
		for _, c := range tensorClasses {
			kernels[c] = append(kernels[c], kern[c])
		}
		convMS := kern["conv_fwd"] + kern["conv_bwd_data"] + kern["conv_bwd_weight"]
		gflops = append(gflops, flops/convMS/1e6)
		overhead = append(overhead, 1-kernT.Seconds()/nnT.Seconds())
	}
	for name, xs := range layer {
		m[name] = median(xs)
	}
	for _, c := range tensorClasses {
		m["tensor."+c+"_ms"] = median(kernels[c])
	}
	m["tensor.conv_gflops"] = median(gflops)
	m["nn.exec_overhead_frac"] = median(overhead)
}
