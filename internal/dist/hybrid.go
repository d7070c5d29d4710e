package dist

import (
	"fmt"

	"paradl/internal/nn"
	"paradl/internal/strategy"
	"paradl/internal/tensor"
)

// The §3.6 hybrids arrange p = p1·p2 PEs as a 2-D grid per
// strategy.HybridGroups: p1 model-parallel GROUPS of p2 PEs, each group
// training on its contiguous shard of every batch, plus p2 segmented
// cross-groups — {PE k of every group} — carrying the data-parallel
// gradient exchange between groups (§4.5.1). Every PE therefore holds
// three communicators: the world, its group, and its segment. The pure
// strategies are the degenerate edges of the same grid — data is
// p2 = 1 (groups of one, the segment spans the world), filter and
// spatial are p1 = 1 (one group spanning the world, singleton
// segments) — and share the grid step implementations so the pure and
// hybrid choreographies cannot drift. runGrid (dist.go) spawns the grid
// and drives its iteration loop.

// groupShard slices group g's contiguous shard out of a batch and
// returns it with its loss weight n_g/B. Shard sizes come from
// strategy.MicroBatches — the same decomposition the Run entry points
// validate against — so slicing and validation cannot diverge.
func groupShard(b *Batch, g, p1 int) (*tensor.Tensor, []int, float64) {
	if p1 == 1 {
		// Degenerate grid edge (pure model parallelism): the shard IS
		// the batch — no Narrow copy.
		return b.X, b.Labels, 1
	}
	total := b.X.Dim(0)
	sizes, err := strategy.MicroBatches(total, p1)
	if err != nil {
		panic(err) // unreachable: checkGrid validated every batch
	}
	off := tensor.SplitOffsets(total, p1)[g]
	n := sizes[g]
	return b.X.Narrow(0, off, n), b.Labels[off : off+n], float64(n) / float64(total)
}

// checkGrid validates the common hybrid preconditions: a sane grid
// shape and at least one sample per group in every batch.
func checkGrid(m *nn.Model, batches []Batch, p1, p2 int, label string) error {
	if p1 < 1 || p2 < 1 {
		return fmt.Errorf("dist: %s needs p1, p2 >= 1, got %d×%d", label, p1, p2)
	}
	if err := checkBatches(m, batches); err != nil {
		return err
	}
	for i := range batches {
		if _, err := strategy.MicroBatches(batches[i].X.Dim(0), p1); err != nil {
			return fmt.Errorf("dist: batch %d: %w", i, err)
		}
	}
	return nil
}
