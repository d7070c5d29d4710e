package ckpt_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"paradl/internal/ckpt"
	"paradl/internal/nn"
	"paradl/internal/tensor"
)

// testState builds a two-layer snapshot with awkward float values
// (subnormals, negative zero, huge magnitudes) so round-trip equality
// is a real bit-identity check, not a pretty-printing coincidence.
func testState() *ckpt.State {
	w := tensor.FromSlice([]float64{0.1, -0.2, 0.3, 5e-324, math.Copysign(0, -1), 1e300}, 2, 3)
	b := tensor.FromSlice([]float64{-1.5, 2.5}, 2)
	gamma := tensor.FromSlice([]float64{1, 1, 0.999999999999}, 3)
	beta := tensor.FromSlice([]float64{0, -0.25, 1e-17}, 3)
	vw := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	vb := tensor.FromSlice([]float64{0.5, -0.5}, 2)
	return &ckpt.State{
		Model: "tinycnn-nobn", Plan: "df:4x2", Iter: 3, Seed: 42,
		LR: 0.05, Momentum: 0.9, Cursor: 3,
		Losses: []float64{2.302585092994046, 2.1, math.Pi},
		Params: []nn.Params{{W: w, B: b}, {Gamma: gamma, Beta: beta}},
		Vel:    []nn.Params{{W: vw, B: vb}, {}},
	}
}

func assertTensorEq(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil-ness mismatch (got %v, want %v)", name, got, want)
	}
	if got == nil {
		return
	}
	if !tensor.EqualShapes(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s[%d]: %v is not bit-identical to %v", name, i, gd[i], wd[i])
		}
	}
}

func assertStateEq(t *testing.T, got, want *ckpt.State) {
	t.Helper()
	if got.Model != want.Model || got.Plan != want.Plan || got.Iter != want.Iter ||
		got.Seed != want.Seed || got.Cursor != want.Cursor ||
		math.Float64bits(got.LR) != math.Float64bits(want.LR) ||
		math.Float64bits(got.Momentum) != math.Float64bits(want.Momentum) {
		t.Fatalf("metadata mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Losses) != len(want.Losses) {
		t.Fatalf("%d losses, want %d", len(got.Losses), len(want.Losses))
	}
	for i := range want.Losses {
		if math.Float64bits(got.Losses[i]) != math.Float64bits(want.Losses[i]) {
			t.Fatalf("loss %d: %v not bit-identical to %v", i, got.Losses[i], want.Losses[i])
		}
	}
	if len(got.Params) != len(want.Params) {
		t.Fatalf("%d param layers, want %d", len(got.Params), len(want.Params))
	}
	for l := range want.Params {
		assertTensorEq(t, "param.W", got.Params[l].W, want.Params[l].W)
		assertTensorEq(t, "param.B", got.Params[l].B, want.Params[l].B)
		assertTensorEq(t, "param.Gamma", got.Params[l].Gamma, want.Params[l].Gamma)
		assertTensorEq(t, "param.Beta", got.Params[l].Beta, want.Params[l].Beta)
	}
	for l := range want.Vel {
		assertTensorEq(t, "vel.W", got.Vel[l].W, want.Vel[l].W)
		assertTensorEq(t, "vel.B", got.Vel[l].B, want.Vel[l].B)
	}
}

func TestCkptRoundTripBitIdentical(t *testing.T) {
	want := testState()
	enc, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	assertStateEq(t, got, want)
}

func TestCkptSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for _, iter := range []int{2, 10, 100} {
		s := testState()
		s.Iter = iter
		if _, err := ckpt.Save(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file (a crash mid-write) must be invisible to Latest.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-ckpt-dead"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != ckpt.FileName(100) {
		t.Fatalf("Latest picked %s, want %s", filepath.Base(path), ckpt.FileName(100))
	}
	got, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testState()
	want.Iter = 100
	assertStateEq(t, got, want)

	if _, err := ckpt.Latest(t.TempDir()); err == nil {
		t.Fatal("Latest on an empty directory must error")
	}
}

// TestCkptCorruptionFailsLoudly is the crash-safety property test: a
// checkpoint truncated at any offset, with any byte flipped, or with
// garbage appended must fail Decode — never silently resume from torn
// state.
func TestCkptCorruptionFailsLoudly(t *testing.T) {
	enc, err := testState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Decode(append([]byte(nil), enc...)); err != nil {
		t.Fatalf("pristine checkpoint must decode: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		b := append([]byte(nil), enc...)
		switch trial % 3 {
		case 0:
			b = b[:rng.Intn(len(b))]
		case 1:
			b[rng.Intn(len(b))]++
		case 2:
			extra := make([]byte, 1+rng.Intn(16))
			rng.Read(extra)
			b = append(b, extra...)
		}
		if _, err := ckpt.Decode(b); err == nil {
			t.Fatalf("trial %d (mode %d): corrupted checkpoint decoded without error", trial, trial%3)
		}
	}
}

func TestCkptLoadRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s := testState()
	path, err := ckpt.Save(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Load(path); err == nil {
		t.Fatal("Load accepted a corrupted checkpoint file")
	}
}

// TestDecodeRejectsNegativeCounts: a header with a negative layer or
// loss count behind a valid trailer is an error, not a makeslice panic,
// and LatestValid falls back past such a newest file to the older
// valid snapshot instead of crashing the elastic supervisor.
func TestDecodeRejectsNegativeCounts(t *testing.T) {
	enc, err := testState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ nlayers, nlosses int }{{-1, 3}, {2, -1}} {
		forged, err := ckpt.ForgeCountsForTest(enc, c.nlayers, c.nlosses)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.Decode(forged); err == nil {
			t.Fatalf("nlayers %d, nlosses %d decoded without error", c.nlayers, c.nlosses)
		}
	}

	dir := t.TempDir()
	s := testState()
	s.Iter = 2
	if _, err := ckpt.Save(dir, s); err != nil {
		t.Fatal(err)
	}
	forged, err := ckpt.ForgeCountsForTest(enc, -1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.FileName(4)), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	st, path, err := ckpt.LatestValid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 2 || filepath.Base(path) != ckpt.FileName(2) {
		t.Fatalf("fell back to iter %d (%s), want 2", st.Iter, path)
	}
}

// TestDecodeRejectsOverflowingShape: a directory entry whose shape
// product wraps to zero (2³²·2³² on 64-bit ints) must not decode into a
// zero-length tensor claiming that shape.
func TestDecodeRejectsOverflowingShape(t *testing.T) {
	enc, err := testState().Encode()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := ckpt.ForgeDirEntryForTest(enc, 0, "Gamma", []int{1 << 32, 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	if s, err := ckpt.Decode(forged); err == nil {
		t.Fatalf("overflowing shape decoded without error: layer 0 gamma %v", s.Params[0].Gamma.Shape())
	}
}
