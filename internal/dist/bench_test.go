package dist_test

import (
	"fmt"
	"testing"

	"paradl/internal/data"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
)

// Benchmarks compare the real per-iteration cost of every runner on the
// same model and batches, making strategy-vs-strategy runtime overhead
// (collectives, halo traffic, grid choreography) measurable:
//
//	go test ./internal/dist -bench . -benchtime 10x
//
// The strategy×width matrix comes from dist.BenchMatrix — shared with
// `paraexp -exp benchdist`, whose committed BENCH_dist.json snapshots
// must stay comparable with these benchmarks. Widths sweep p∈{2,4,8}
// where the Table 3 limits allow, so collective scaling (hub O(p) vs
// ring O(1) per-PE traffic) is visible, not just the p=2 constant
// factor.

func benchBatches(b *testing.B, m *nn.Model) []dist.Batch {
	b.Helper()
	return data.Toy(m, int64(dist.BenchBatches*dist.BenchBatchSize)).Batches(dist.BenchBatches, dist.BenchBatchSize)
}

// benchMatrix runs every matrix case of one strategy as a sub-benchmark
// pair at the BenchOverlapBucketBytes bucket size — overlap=true
// launches nonblocking exchanges mid-backward, overlap=false runs the
// identical buckets synchronously — so the cost (or win, with parallel
// hardware) of the async launches is visible per strategy×width.
// BENCH_dist.json's primary ns_per_op additionally tracks the default
// configuration.
func benchMatrix(b *testing.B, name string) {
	ran := false
	for _, spec := range dist.BenchMatrix() {
		if spec.Name != name {
			continue
		}
		ran = true
		m := model.TinyCNNNoBN()
		if spec.Model != "" {
			var err error
			if m, err = model.ByName(spec.Model); err != nil {
				b.Fatal(err)
			}
		}
		batches := benchBatches(b, m)
		label := fmt.Sprintf("p=%d", spec.P)
		if spec.P1 > 0 {
			label = fmt.Sprintf("p=%dx%d", spec.P1, spec.P2)
		}
		for _, overlap := range []bool{true, false} {
			spec, overlap := spec, overlap
			b.Run(fmt.Sprintf("%s/overlap=%v", label, overlap), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := spec.Run(m, seed, batches, lr, dist.WithOverlap(overlap),
						dist.WithBucketBytes(dist.BenchOverlapBucketBytes)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	if !ran {
		b.Fatalf("no %q cases in dist.BenchMatrix", name)
	}
}

func BenchmarkRunSequential(b *testing.B) {
	m := model.TinyCNNNoBN()
	batches := benchBatches(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequential(b, m, batches)
	}
}

func BenchmarkRunData(b *testing.B)        { benchMatrix(b, "data") }
func BenchmarkRunSpatial(b *testing.B)     { benchMatrix(b, "spatial") }
func BenchmarkRunFilter(b *testing.B)      { benchMatrix(b, "filter") }
func BenchmarkRunChannel(b *testing.B)     { benchMatrix(b, "channel") }
func BenchmarkRunPipeline(b *testing.B)    { benchMatrix(b, "pipeline") }
func BenchmarkRunDataFilter(b *testing.B)  { benchMatrix(b, "data+filter") }
func BenchmarkRunDataSpatial(b *testing.B) { benchMatrix(b, "data+spatial") }

func BenchmarkRunDataPipeline(b *testing.B) { benchMatrix(b, "data+pipeline") }

// BenchmarkRunTinyResNet tracks the DAG executor's overhead: the
// residual model under a pure-data plan and the dp grid.
func BenchmarkRunTinyResNet(b *testing.B) { benchMatrix(b, "tinyresnet") }
