// Elastic-runtime tests: bit-identical checkpoint/resume on every
// plan, supervised recovery from injected PE death, and live plan
// migration through the canonical checkpoint representation.
package dist_test

import (
	"math"
	"strings"
	"testing"

	"paradl/internal/ckpt"
	"paradl/internal/core"
	"paradl/internal/dist"
	"paradl/internal/model"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

func mustPlan(t *testing.T, s string) dist.Plan {
	t.Helper()
	pl, err := dist.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

type resumeCase struct {
	m     *nn.Model
	plans []string
}

// resumeCases is the model × plan grid of the resume suites:
// tinycnn-nobn on every plan shape, tinyresnet on the DAG executor's
// grid (shortcut convs sharded like main-path ones), and tinycnn on the
// plans that keep BN in value parity — under filter and channel its BN
// parameters stay replicated beside the sharded weights.
func resumeCases() []resumeCase {
	var residual []string
	for _, pl := range residualPlans() {
		residual = append(residual, pl.String())
	}
	return []resumeCase{
		{model.TinyCNNNoBN(), []string{
			"serial",
			"data:2", "data:4",
			"spatial:2", "spatial:4",
			"filter:2", "filter:4",
			"channel:2", "channel:4",
			"pipeline:2", "pipeline:4",
			"df:2x2", "ds:2x2", "dp:2x2",
		}},
		{model.TinyResNet(), residual},
		{model.TinyCNN(), []string{"data:2", "spatial:2", "filter:2", "channel:2", "df:2x2", "ds:2x2"}},
	}
}

// snapshotAt trains m under plan ps and returns the run and its
// iteration-iter snapshot.
func snapshotAt(t *testing.T, m *nn.Model, batches []dist.Batch, ps string, iter int, opts []dist.Option) (*dist.Result, *ckpt.State) {
	t.Helper()
	var snap *ckpt.State
	res, err := dist.Run(m, batches, mustPlan(t, ps), append(append([]dist.Option(nil), opts...),
		dist.WithCheckpoint(iter, func(st *ckpt.State) {
			if st.Iter == iter {
				snap = st
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("%s: no snapshot emitted at iteration %d", ps, iter)
	}
	return res, snap
}

// TestResumeBitIdenticalAllPlans pins the tentpole invariant on every
// plan of every resume model: (1) a checkpointing run is bit-identical
// to a plain run (the snapshot gathers are pure data movement), and (2)
// a run restored from the iteration-2 snapshot — after a full wire
// round-trip — reproduces the remaining losses bit-for-bit, momentum
// velocities included. Equality here is ==, not a tolerance.
func TestResumeBitIdenticalAllPlans(t *testing.T) {
	for _, tc := range resumeCases() {
		for _, ps := range tc.plans {
			name := ps
			if tc.m.Name != model.TinyCNNNoBN().Name {
				name = tc.m.Name + "/" + ps
			}
			t.Run(name, func(t *testing.T) { resumeBitIdentical(t, tc.m, ps) })
		}
	}
}

func resumeBitIdentical(t *testing.T, m *nn.Model, ps string) {
	batches := toyBatches(t, m, 4, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	pl := mustPlan(t, ps)
	straight, err := dist.Run(m, batches, pl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ck, snap := snapshotAt(t, m, batches, ps, 2, opts)
	for i := range straight.Losses {
		if ck.Losses[i] != straight.Losses[i] {
			t.Fatalf("checkpointing perturbed the run: iter %d loss %v vs %v", i, ck.Losses[i], straight.Losses[i])
		}
	}
	if snap.Iter != 2 || snap.Cursor != 2 || snap.Plan != pl.String() || snap.Model != m.Name {
		t.Fatalf("snapshot metadata %+v, want iter=2 cursor=2 plan=%s model=%s", snap, pl, m.Name)
	}
	if len(snap.Losses) != 2 {
		t.Fatalf("snapshot carries %d losses, want 2", len(snap.Losses))
	}
	// Round-trip through the wire format so the resume also proves
	// encode/decode fidelity, not just in-memory cloning.
	enc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dist.Run(m, batches[2:], pl,
		append(append([]dist.Option(nil), opts...), dist.WithInitState(restored))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Losses) != 2 {
		t.Fatalf("resumed run produced %d losses, want 2", len(resumed.Losses))
	}
	for i := range resumed.Losses {
		if resumed.Losses[i] != straight.Losses[2+i] {
			t.Fatalf("resume diverged at iter %d: %v vs straight %v (Δ=%g)",
				2+i, resumed.Losses[i], straight.Losses[2+i],
				math.Abs(resumed.Losses[i]-straight.Losses[2+i]))
		}
	}
}

// TestResumeSnapshotMatchesSerial pins that every engine's checkpoint
// gather inverts its carve: under momentum, the iteration-2 snapshot of
// every non-serial plan equals the serial snapshot field by field —
// the same nil fields and shapes, params and velocities within 1e-6.
func TestResumeSnapshotMatchesSerial(t *testing.T) {
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	for _, tc := range resumeCases() {
		batches := toyBatches(t, tc.m, 2, 8)
		_, want := snapshotAt(t, tc.m, batches, "serial", 2, opts)
		for _, ps := range tc.plans {
			if ps == "serial" {
				continue
			}
			t.Run(tc.m.Name+"/"+ps, func(t *testing.T) {
				_, got := snapshotAt(t, tc.m, batches, ps, 2, opts)
				assertSameState(t, "params", want.Params, got.Params)
				assertSameState(t, "velocities", want.Vel, got.Vel)
			})
		}
	}
}

func assertSameState(t *testing.T, what string, want, got []nn.Params) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layers, serial has %d", what, len(got), len(want))
	}
	for l := range want {
		w := [4]*tensor.Tensor{want[l].W, want[l].B, want[l].Gamma, want[l].Beta}
		g := [4]*tensor.Tensor{got[l].W, got[l].B, got[l].Gamma, got[l].Beta}
		for f, name := range []string{"W", "B", "Gamma", "Beta"} {
			if (w[f] == nil) != (g[f] == nil) {
				t.Fatalf("%s layer %d %s: nil=%v, serial nil=%v", what, l, name, g[f] == nil, w[f] == nil)
			}
			if w[f] == nil {
				continue
			}
			if !tensor.EqualShapes(g[f].Shape(), w[f].Shape()) {
				t.Fatalf("%s layer %d %s: shape %v, serial %v", what, l, name, g[f].Shape(), w[f].Shape())
			}
			for i, v := range w[f].Data() {
				if d := math.Abs(g[f].Data()[i] - v); d > tol || math.IsNaN(d) {
					t.Fatalf("%s layer %d %s[%d]: %v vs serial %v (Δ %.3e > %g)", what, l, name, i, g[f].Data()[i], v, d, tol)
				}
			}
		}
	}
}

// TestResumeRejectsVelocityLayerCount: a snapshot whose velocities
// cover neither none nor all of the model's layers is rejected by Run
// with a named error before any PE spawns — not by a PE indexing past
// the velocity list.
func TestResumeRejectsVelocityLayerCount(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	_, snap := snapshotAt(t, m, batches, "data:2", 1, opts)
	snap.Vel = snap.Vel[:1]
	_, err := dist.Run(m, batches[1:], mustPlan(t, "data:2"), append(opts, dist.WithInitState(snap))...)
	if err == nil {
		t.Fatal("a checkpoint with velocities for 1 layer must not restore")
	}
	if !strings.Contains(err.Error(), "velocities for 1 layers") || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q should name the velocity layer count, not a PE panic", err)
	}
}

// TestElasticRecoveryParity injects the death of PE 3 at iteration 2
// into p=8 worlds and demands the supervisor recover WITHOUT human
// intervention: re-plan at p=7 via the oracle ladder, restore the
// iteration-2 checkpoint, and finish with ≤1e-6 parity against the
// sequential baseline over the whole stitched loss series.
func TestElasticRecoveryParity(t *testing.T) {
	for _, tc := range []struct {
		model string
		plan  string
	}{
		{"tinycnn-nobn", "data:8"},
		{"tinycnn-nobn", "df:4x2"},
		{"tinyresnet", "data:8"},
	} {
		tc := tc
		t.Run(tc.model+"/"+tc.plan, func(t *testing.T) {
			m, err := model.ByName(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			batches := toyBatches(t, m, 4, 8)
			seq := sequential(t, m, batches)
			res, err := dist.RunElastic(m, batches, mustPlan(t, tc.plan),
				dist.Policy{CkptEvery: 1, MaxRetries: 3, CkptDir: t.TempDir()},
				dist.WithSeed(seed), dist.WithLR(lr), dist.WithFailAt(3, 2))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Recoveries) != 1 {
				t.Fatalf("supervisor logged %d recoveries, want 1: %+v", len(res.Recoveries), res.Recoveries)
			}
			rec := res.Recoveries[0]
			if rec.PE != 3 || rec.FailIter != 2 || rec.ResumeIter != 2 {
				t.Fatalf("recovery %+v, want PE=3 FailIter=2 ResumeIter=2", rec)
			}
			if rec.From != mustPlan(t, tc.plan).String() {
				t.Fatalf("recovery migrated from %q, want %q", rec.From, tc.plan)
			}
			to := mustPlan(t, rec.To)
			if to.P() >= 8 {
				t.Fatalf("recovery plan %q did not shrink the world below 8 PEs", rec.To)
			}
			assertParity(t, seq, res.Result, nil)
		})
	}
}

// TestElasticGivesUpAfterMaxRetries: a failure the ladder cannot save
// (serial — no checkpoint ever taken, no smaller world) surfaces as an
// error instead of looping forever.
func TestElasticExhaustsRetries(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 4)
	_, err := dist.RunElastic(m, batches, dist.Plan{Strategy: core.Serial},
		dist.Policy{CkptEvery: 1, MaxRetries: 2},
		dist.WithSeed(seed), dist.WithLR(lr), dist.WithFailAt(0, 0))
	if err == nil {
		t.Fatal("a serial world with a dead PE 0 cannot recover, but RunElastic returned nil error")
	}
}

// TestMigratePlanMidRun is the live-migration acceptance test:
// batches 0..1 under data:8, canonical checkpoint at the switch point,
// batches 2..3 under df:4x2 — and the stitched series still matches
// sequential SGD within 1e-6.
func TestMigratePlanMidRun(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 4, 8)
	opts := []dist.Option{dist.WithSeed(seed), dist.WithLR(lr), dist.WithMomentum(0.9)}
	baseline, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.Migrate(m, batches, mustPlan(t, "data:8"), 2, mustPlan(t, "df:4x2"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "data+filter" && res.Strategy != "df" {
		t.Logf("migrated result strategy: %s", res.Strategy)
	}
	if res.P1 != 4 || res.P2 != 2 {
		t.Fatalf("migrated run reports grid %dx%d, want 4x2", res.P1, res.P2)
	}
	assertParity(t, baseline, res, nil)
}

// TestResumeRejectsWrongModel: a checkpoint written for one model must
// not restore into another.
func TestResumeRejectsWrongModel(t *testing.T) {
	m := model.TinyCNNNoBN()
	batches := toyBatches(t, m, 2, 4)
	var snap *ckpt.State
	if _, err := dist.Run(m, batches, dist.Plan{Strategy: core.Serial},
		dist.WithSeed(seed), dist.WithLR(lr),
		dist.WithCheckpoint(1, func(st *ckpt.State) { snap = st })); err != nil {
		t.Fatal(err)
	}
	other := model.TinyCNN()
	otherBatches := toyBatches(t, other, 1, 4)
	if _, err := dist.Run(other, otherBatches, dist.Plan{Strategy: core.Serial},
		dist.WithSeed(seed), dist.WithLR(lr), dist.WithInitState(snap)); err == nil {
		t.Fatal("restoring a tinycnn-nobn checkpoint into tinycnn must fail")
	}
}
