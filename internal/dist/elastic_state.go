package dist

import (
	"fmt"

	"paradl/internal/ckpt"
	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
)

// This file is the canonical-state machinery of the elastic runtime:
// every engine can GATHER its sharded training state into the full
// unsharded tensors a checkpoint records, and RESTORE such a snapshot
// by overwriting its freshly-initialized replica before carving shards.
// Because every engine derives its shards from the full replica by
// Narrow (a copy), restore is uniform: write the canonical parameters
// into the replica and the usual sharding path re-shards them — under
// the original plan, a shrunken plan, or an entirely different
// strategy. Gathers are pure data movement over cloned tensors, so a
// checkpointing run is bit-identical to a plain one.

// restoreParams copies the canonical snapshot parameters over net's
// seed-derived ones, field by field, with strict shape checking; it
// also validates the snapshot's velocity geometry so the per-engine
// velocity seeding below cannot fail mid-world.
func restoreParams(net *nn.Network, st *ckpt.State) error {
	for l := range net.Params {
		for _, f := range [4]struct {
			name     string
			dst, src *tensor.Tensor
		}{
			{"W", net.Params[l].W, st.Params[l].W},
			{"B", net.Params[l].B, st.Params[l].B},
			{"Gamma", net.Params[l].Gamma, st.Params[l].Gamma},
			{"Beta", net.Params[l].Beta, st.Params[l].Beta},
		} {
			if err := restoreField(f.dst, f.src, l, f.name); err != nil {
				return err
			}
		}
		if st.Vel == nil {
			continue
		}
		for _, f := range [4]struct {
			name       string
			param, vel *tensor.Tensor
		}{
			{"W", net.Params[l].W, st.Vel[l].W},
			{"B", net.Params[l].B, st.Vel[l].B},
			{"Gamma", net.Params[l].Gamma, st.Vel[l].Gamma},
			{"Beta", net.Params[l].Beta, st.Vel[l].Beta},
		} {
			if f.vel == nil {
				continue
			}
			if f.param == nil || !tensor.EqualShapes(f.vel.Shape(), f.param.Shape()) {
				return fmt.Errorf("dist: checkpoint velocity for layer %d %s does not match the model's parameter geometry", l, f.name)
			}
		}
	}
	return nil
}

func restoreField(dst, src *tensor.Tensor, l int, name string) error {
	if (dst == nil) != (src == nil) {
		return fmt.Errorf("dist: checkpoint and model disagree on layer %d parameter %s", l, name)
	}
	if dst == nil {
		return nil
	}
	if !tensor.EqualShapes(dst.Shape(), src.Shape()) {
		return fmt.Errorf("dist: checkpoint layer %d %s has shape %v, model wants %v", l, name, src.Shape(), dst.Shape())
	}
	copy(dst.Data(), src.Data())
	return nil
}

// velClone returns a private copy of w's momentum velocity — a zero
// tensor when no update has created one yet (lazy creation makes
// absence ≡ zeros, and presence is SPMD-deterministic, so every PE of
// a gather agrees on the geometry).
func velClone(mom *nn.Momentum, w *tensor.Tensor) *tensor.Tensor {
	if w == nil {
		return nil
	}
	if v := mom.Velocity(w); v != nil {
		return v.Clone()
	}
	return tensor.New(w.Shape()...)
}

// seedVel installs a private clone of canonical velocity v for
// parameter (or shard) w.
func seedVel(mom *nn.Momentum, w, v *tensor.Tensor) {
	if w == nil || v == nil {
		return
	}
	mom.SeedVelocity(w, v.Clone())
}

// velRestorable reports whether a run has velocity state to re-seed.
func velRestorable(cfg *runConfig, mom *nn.Momentum) bool {
	return mom != nil && cfg.initState != nil && cfg.initState.Vel != nil
}

// cloneNetState snapshots a fully-replicated network: the sequential
// engine's state, and the spatial engine's (where every PE steps the
// whole replica in lockstep, so rank 0's replica IS the canonical
// state). vel is nil for plain-SGD runs.
func cloneNetState(net *nn.Network, mom *nn.Momentum) (params, vel []nn.Params) {
	params = net.CloneParams()
	if mom == nil {
		return params, nil
	}
	vel = make([]nn.Params, len(net.Params))
	for l, p := range net.Params {
		vel[l] = nn.Params{
			W: velClone(mom, p.W), B: velClone(mom, p.B),
			Gamma: velClone(mom, p.Gamma), Beta: velClone(mom, p.Beta),
		}
	}
	return params, vel
}

// seedFullVelocities re-seeds momentum state for a fully-replicated
// engine (sequential, spatial): every parameter takes its full
// canonical velocity.
func seedFullVelocities(cfg *runConfig, mom *nn.Momentum, net *nn.Network) {
	if !velRestorable(cfg, mom) {
		return
	}
	for l := range net.Params {
		v := cfg.initState.Vel[l]
		seedVel(mom, net.Params[l].W, v.W)
		seedVel(mom, net.Params[l].B, v.B)
		seedVel(mom, net.Params[l].Gamma, v.Gamma)
		seedVel(mom, net.Params[l].Beta, v.Beta)
	}
}

// gatherFilterState reassembles the data×filter grid's canonical state
// within one group: every sharded layer's W/B (and velocities)
// Allgather along the filter axis — the exact inverse of filterShards'
// Narrow — and the replicated BN parameters clone locally. All ranks of
// every group run it (SPMD within the group; groups are replicas), and
// every rank returns the full tensors; the caller emits on the result
// rank only.
func gatherFilterState(group *Comm, net *nn.Network, shards []*weightShard, mom *nn.Momentum) (params, vel []nn.Params) {
	g := len(net.Params)
	params = make([]nn.Params, g)
	if mom != nil {
		vel = make([]nn.Params, g)
	}
	for l := range net.Params {
		if sh := shards[l]; sh != nil {
			params[l].W = group.allGather(sh.w.Clone(), 0)
			params[l].B = group.allGather(sh.b.Clone(), 0)
			if mom != nil {
				vel[l].W = group.allGather(velClone(mom, sh.w), 0)
				vel[l].B = group.allGather(velClone(mom, sh.b), 0)
			}
			continue
		}
		cloneReplicated(&params[l], net.Params[l])
		if mom != nil {
			vel[l] = nn.Params{
				W: velClone(mom, net.Params[l].W), B: velClone(mom, net.Params[l].B),
				Gamma: velClone(mom, net.Params[l].Gamma), Beta: velClone(mom, net.Params[l].Beta),
			}
		}
	}
	return params, vel
}

func cloneReplicated(dst *nn.Params, src nn.Params) {
	if src.W != nil {
		dst.W = src.W.Clone()
	}
	if src.B != nil {
		dst.B = src.B.Clone()
	}
	if src.Gamma != nil {
		dst.Gamma = src.Gamma.Clone()
	}
	if src.Beta != nil {
		dst.Beta = src.Beta.Clone()
	}
}

// seedFilterVelocities re-seeds momentum state after a restore under
// the data×filter grid: each shard takes its Narrow slice of the
// canonical velocity (the same slice geometry filterShards carves from
// the parameters), replicated layers take the full tensors.
func seedFilterVelocities(cfg *runConfig, mom *nn.Momentum, net *nn.Network, shards []*weightShard) {
	if !velRestorable(cfg, mom) {
		return
	}
	for l := range net.Params {
		v := cfg.initState.Vel[l]
		sh := shards[l]
		if sh == nil {
			seedVel(mom, net.Params[l].W, v.W)
			seedVel(mom, net.Params[l].B, v.B)
			seedVel(mom, net.Params[l].Gamma, v.Gamma)
			seedVel(mom, net.Params[l].Beta, v.Beta)
			continue
		}
		if v.W != nil {
			mom.SeedVelocity(sh.w, v.W.Narrow(0, sh.rng.Start, sh.rng.Size()))
		}
		if v.B != nil {
			mom.SeedVelocity(sh.b, v.B.Narrow(0, sh.rng.Start, sh.rng.Size()))
		}
	}
}

// gatherChannelState reassembles the channel engine's canonical state:
// sharded weights Allgather along the input-channel axis (conv axis 1;
// FC column blocks, contiguous per rank, so the same axis-1 gather
// inverts channelShards), while biases — replicated and stepped in
// lockstep — and whole replicated layers clone locally.
func gatherChannelState(c *Comm, net *nn.Network, shards []*weightShard, mom *nn.Momentum) (params, vel []nn.Params) {
	g := len(net.Params)
	params = make([]nn.Params, g)
	if mom != nil {
		vel = make([]nn.Params, g)
	}
	for l := range net.Params {
		if sh := shards[l]; sh != nil {
			params[l].W = c.allGather(sh.w.Clone(), 1)
			params[l].B = net.Params[l].B.Clone()
			if mom != nil {
				vel[l].W = c.allGather(velClone(mom, sh.w), 1)
				vel[l].B = velClone(mom, net.Params[l].B)
			}
			continue
		}
		cloneReplicated(&params[l], net.Params[l])
		if mom != nil {
			vel[l] = nn.Params{
				W: velClone(mom, net.Params[l].W), B: velClone(mom, net.Params[l].B),
				Gamma: velClone(mom, net.Params[l].Gamma), Beta: velClone(mom, net.Params[l].Beta),
			}
		}
	}
	return params, vel
}

// seedChannelVelocities mirrors gatherChannelState at restore time:
// sharded weights take their axis-1 Narrow slice of the canonical
// velocity, replicated biases and layers the full tensors.
func seedChannelVelocities(cfg *runConfig, mom *nn.Momentum, net *nn.Network, shards []*weightShard) {
	if !velRestorable(cfg, mom) {
		return
	}
	layers := net.Model.Layers
	for l := range net.Params {
		v := cfg.initState.Vel[l]
		sh := shards[l]
		if sh == nil {
			seedVel(mom, net.Params[l].W, v.W)
			seedVel(mom, net.Params[l].B, v.B)
			seedVel(mom, net.Params[l].Gamma, v.Gamma)
			seedVel(mom, net.Params[l].Beta, v.Beta)
			continue
		}
		if v.W != nil {
			switch layers[l].Kind {
			case nn.Conv:
				mom.SeedVelocity(sh.w, v.W.Narrow(1, sh.rng.Start, sh.rng.Size()))
			case nn.FC:
				vol := int(layers[l].InSize()) / layers[l].C
				mom.SeedVelocity(sh.w, v.W.Narrow(1, sh.rng.Start*vol, sh.rng.Size()*vol))
			}
		}
		// The bias is replicated and stepped in lockstep on every PE.
		seedVel(mom, net.Params[l].B, v.B)
	}
}

// gatherPipelineState assembles the pipeline grid's canonical state on
// the LAST stage of group 0 (the engine's result rank, which also owns
// the loss series): every stage of the group sends its owned layers'
// parameters — and velocities, under momentum — point-to-point to the
// root in deterministic (stage-ascending, layer-ascending, W/B/Gamma/
// Beta) order. Only group 0 calls this (other groups are bit-identical
// replicas); ranks other than the root return nil.
func gatherPipelineState(group *Comm, net *nn.Network, stages []strategy.PipelineStage, mom *nn.Momentum) (params, vel []nn.Params) {
	root := group.Size() - 1
	g := len(net.Params)
	if group.Rank() == root {
		params = make([]nn.Params, g)
		if mom != nil {
			vel = make([]nn.Params, g)
		}
	}
	for _, st := range stages {
		owner := st.PE
		for l := st.Start; l < st.End; l++ {
			for _, f := range fieldPtrs(&net.Params[l]) {
				if *f == nil {
					continue
				}
				switch {
				case owner == root && group.Rank() == root:
					*fieldSlot(&params[l], f, &net.Params[l]) = (*f).Clone()
				case group.Rank() == owner:
					group.Send(root, *f)
				case group.Rank() == root:
					*fieldSlot(&params[l], f, &net.Params[l]) = group.Recv(owner)
				}
			}
			if mom == nil {
				continue
			}
			for _, f := range fieldPtrs(&net.Params[l]) {
				if *f == nil {
					continue
				}
				switch {
				case owner == root && group.Rank() == root:
					*fieldSlot(&vel[l], f, &net.Params[l]) = velClone(mom, *f)
				case group.Rank() == owner:
					group.sendOwned(root, velClone(mom, *f))
				case group.Rank() == root:
					*fieldSlot(&vel[l], f, &net.Params[l]) = group.Recv(owner)
				}
			}
		}
	}
	return params, vel
}

// fieldPtrs returns the four parameter slots of a layer in canonical
// order; nil slots mean the layer has no such parameter, identically
// on every replica (geometry comes from the model spec).
func fieldPtrs(p *nn.Params) [4]**tensor.Tensor {
	return [4]**tensor.Tensor{&p.W, &p.B, &p.Gamma, &p.Beta}
}

// fieldSlot maps a source field pointer of ref onto the corresponding
// slot of dst, so gathered tensors land in the same field they came
// from.
func fieldSlot(dst *nn.Params, f **tensor.Tensor, ref *nn.Params) **tensor.Tensor {
	switch f {
	case &ref.W:
		return &dst.W
	case &ref.B:
		return &dst.B
	case &ref.Gamma:
		return &dst.Gamma
	default:
		return &dst.Beta
	}
}

// seedStageVelocities re-seeds momentum state for this pipeline
// stage's owned layers after a restore; other layers are never stepped
// here and keep no velocity.
func seedStageVelocities(cfg *runConfig, mom *nn.Momentum, net *nn.Network, st strategy.PipelineStage) {
	if !velRestorable(cfg, mom) {
		return
	}
	for l := st.Start; l < st.End; l++ {
		v := cfg.initState.Vel[l]
		seedVel(mom, net.Params[l].W, v.W)
		seedVel(mom, net.Params[l].B, v.B)
		seedVel(mom, net.Params[l].Gamma, v.Gamma)
		seedVel(mom, net.Params[l].Beta, v.Beta)
	}
}
