package dist

import (
	"fmt"

	"paradl/internal/ckpt"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// This file is the canonical-state machinery of the elastic runtime.
// Every engine declares, once, where its PE holds each parameter field
// within its group — its placement, Table 3's partitioning of the
// weights — and everything else derives from that one declaration:
// engines carve their parameter shards with it, runGrid carves the
// canonical velocities of a resumed run with the same cut and gathers
// the canonical state at checkpoint boundaries by inverting it, and Run
// validates a restore target once, before any PE spawns. Because every
// engine carves from a full replica (a copy), restore is uniform: write
// the canonical parameters into the replica and the usual carving
// re-shards them — under the original plan, a shrunken plan, or an
// entirely different strategy. Gathers are pure data movement over
// cloned tensors, so a checkpointing run is bit-identical to a plain
// one.

// fieldNames names a layer's four parameter fields in the canonical
// order that placements, gathers and restores index by; fieldW and
// fieldB are the indices the sharding engines re-place.
var fieldNames = [4]string{"W", "B", "Gamma", "Beta"}

const fieldW, fieldB = 0, 1

// fields returns the addresses of p's four fields in canonical order.
func fields(p *nn.Params) [4]**tensor.Tensor {
	return [4]**tensor.Tensor{&p.W, &p.B, &p.Gamma, &p.Beta}
}

// holdKind is how a group holds one parameter field.
type holdKind uint8

const (
	holdWhole holdKind = iota // whole on every group rank (replicated, stepped in lockstep)
	holdSplit                 // sliced along one axis, rank k holding the k-th slice
	holdOwned                 // whole on exactly one group rank
)

// hold is where one PE holds one parameter field within its group.
type hold struct {
	// t is the tensor this PE steps: its slice of a split field, the
	// whole field otherwise (stale on the ranks that do not own an owned
	// field). Nil when the layer has no such field — identically on
	// every rank, since geometry comes from the model spec.
	t      *tensor.Tensor
	kind   holdKind
	axis   int // holdSplit: the sliced axis
	off, n int // holdSplit: this rank's slice [off, off+n) along axis
	owner  int // holdOwned: the group rank holding the field
}

// placement maps every layer's four parameter fields to where this PE
// holds them.
type placement [][4]hold

// replicated places every field of net whole on every rank, held by
// the replica itself — the serial and spatial engines' placement, and
// the starting point the sharding engines re-place fields from.
func replicated(net *nn.Network) placement {
	pl := make(placement, len(net.Params))
	for l := range net.Params {
		for f, t := range fields(&net.Params[l]) {
			pl[l][f] = hold{t: *t}
		}
	}
	return pl
}

// shard re-places field f of layer l as this rank's slice [off, off+n)
// along axis, carved from the whole replica tensor it held, and returns
// the slice — the PE's authoritative copy of the field from here on.
func (pl placement) shard(l, f, axis, off, n int) *tensor.Tensor {
	h := hold{kind: holdSplit, axis: axis, off: off, n: n}
	h.t = h.carve(pl[l][f].t)
	pl[l][f] = h
	return h.t
}

// own re-places every field of layers [start, end) as held whole by
// group rank owner only.
func (pl placement) own(start, end, owner int) {
	for l := start; l < end; l++ {
		for f := range pl[l] {
			pl[l][f].kind, pl[l][f].owner = holdOwned, owner
		}
	}
}

// carve cuts this PE's part out of the full tensor src: its slice of a
// split field, all of it otherwise. Always a copy, never an alias.
func (h *hold) carve(src *tensor.Tensor) *tensor.Tensor {
	if h.kind == holdSplit {
		return src.Narrow(h.axis, h.off, h.n)
	}
	return src.Clone()
}

// seedVelocities installs, for every field group rank holds, its carve
// of the canonical velocity vel — the same cut its parameter got.
func (pl placement) seedVelocities(mom *nn.Momentum, vel []nn.Params, rank int) {
	for l := range pl {
		canon := fields(&vel[l])
		for f := range pl[l] {
			h := &pl[l][f]
			if h.t == nil || *canon[f] == nil || (h.kind == holdOwned && h.owner != rank) {
				continue
			}
			mom.SeedVelocity(h.t, h.carve(*canon[f]))
		}
	}
}

// gather assembles the canonical state on group rank root by inverting
// the placement: split fields allgather along their axis, owned fields
// travel from their owner to root, and root clones whole fields. Every
// rank of the group calls it (the allgathers are collective); only root
// returns the state. vel is nil for plain-SGD runs.
func (pl placement) gather(group *Comm, root int, mom *nn.Momentum) (params, vel []nn.Params) {
	isRoot := group.Rank() == root
	if isRoot {
		params = make([]nn.Params, len(pl))
		if mom != nil {
			vel = make([]nn.Params, len(pl))
		}
	}
	velOf := func(t *tensor.Tensor) *tensor.Tensor { return velClone(mom, t) }
	for l := range pl {
		for f := range pl[l] {
			h := &pl[l][f]
			if h.t == nil {
				continue
			}
			p := h.collect(group, root, (*tensor.Tensor).Clone)
			if isRoot {
				*fields(&params[l])[f] = p
			}
			if mom == nil {
				continue
			}
			v := h.collect(group, root, velOf)
			if isRoot {
				*fields(&vel[l])[f] = v
			}
		}
	}
	return params, vel
}

// collect brings one field's full tensor to group rank root. Each
// contributing rank builds its part with local — a private copy of the
// held parameter or of its velocity — and hands ownership over; ranks
// other than root return nil.
func (h *hold) collect(group *Comm, root int, local func(*tensor.Tensor) *tensor.Tensor) *tensor.Tensor {
	me := group.Rank()
	switch {
	case h.kind == holdSplit:
		if full := group.allGather(local(h.t), h.axis); me == root {
			return full
		}
	case h.kind == holdOwned && h.owner != root:
		if me == h.owner {
			group.sendOwned(root, local(h.t))
		} else if me == root {
			return group.Recv(h.owner)
		}
	case me == root:
		return local(h.t)
	}
	return nil
}

// velClone returns a private copy of w's momentum velocity — a zero
// tensor when no update has created one yet (lazy creation makes
// absence ≡ zeros, and presence is SPMD-deterministic, so every PE of
// a gather agrees on the geometry).
func velClone(mom *nn.Momentum, w *tensor.Tensor) *tensor.Tensor {
	if v := mom.Velocity(w); v != nil {
		return v.Clone()
	}
	return tensor.New(w.Shape()...)
}

// checkState validates a restore target once, before any PE spawns:
// the snapshot must be for m, carry parameters for every layer and
// velocities for none or all of them, and match m's parameter geometry
// field by field. Every PE's restore is then a plain copy.
func checkState(m *nn.Model, st *ckpt.State) error {
	g := m.G()
	if st.Model != m.Name {
		return fmt.Errorf("dist: checkpoint is for model %q, run is for %q", st.Model, m.Name)
	}
	if len(st.Params) != g {
		return fmt.Errorf("dist: checkpoint has %d layers, model %q has %d", len(st.Params), m.Name, g)
	}
	if len(st.Vel) != 0 && len(st.Vel) != g {
		return fmt.Errorf("dist: checkpoint carries velocities for %d layers, model %q has %d (want 0 or %d)", len(st.Vel), m.Name, g, g)
	}
	if err := checkBatches(m, nil); err != nil {
		return err // the model must compile before a reference replica can be built
	}
	ref := newReplica(m, st.Seed)
	for l := range ref.Params {
		want, got := fields(&ref.Params[l]), fields(&st.Params[l])
		for f, w := range want {
			switch {
			case (*w == nil) != (*got[f] == nil):
				return fmt.Errorf("dist: checkpoint and model disagree on layer %d parameter %s", l, fieldNames[f])
			case *w != nil && !tensor.EqualShapes((*got[f]).Shape(), (*w).Shape()):
				return fmt.Errorf("dist: checkpoint layer %d %s has shape %v, model wants %v", l, fieldNames[f], (*got[f]).Shape(), (*w).Shape())
			}
			if len(st.Vel) == 0 {
				continue
			}
			if v := *fields(&st.Vel[l])[f]; v != nil && (*w == nil || !tensor.EqualShapes(v.Shape(), (*w).Shape())) {
				return fmt.Errorf("dist: checkpoint velocity for layer %d %s does not match the model's parameter geometry", l, fieldNames[f])
			}
		}
	}
	return nil
}

// restoreParams copies the canonical snapshot parameters over net's
// seed-derived ones; checkState has already validated their geometry.
func restoreParams(net *nn.Network, st *ckpt.State) {
	for l := range net.Params {
		src := fields(&st.Params[l])
		for f, dst := range fields(&net.Params[l]) {
			if *dst != nil {
				copy((*dst).Data(), (*src[f]).Data())
			}
		}
	}
}
