package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// A stall of one request must be charged to the requests queued behind
// it: latency runs from each request's due time, not from when a
// connection picked it up.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 100 * time.Millisecond
	ops := make([]serveOp, 10)
	for i := range ops {
		ops[i].due = time.Duration(i) * gap
		ops[i].path = "/stub"
	}
	stalled := 2
	do := func(op serveOp) (int, []byte, error) {
		if op.due == ops[stalled].due {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}
	st := openLoop(ops, 1, do)
	if lat := st.results[0].lat; lat > stall/2 {
		t.Fatalf("first request latency %v before any stall", lat)
	}
	for i := stalled + 1; i < len(ops); i++ {
		// Request i waited for the stall to end: at least stall − its
		// offset from the stalled request's due time.
		if want := stall - time.Duration(i-stalled)*gap; st.results[i].lat < want {
			t.Errorf("request %d latency %v, want ≥ %v (queued behind the stall)", i, st.results[i].lat, want)
		}
	}
	if st.maxOutstanding < len(ops)-stalled-2 {
		t.Errorf("max outstanding %d: the backlog behind the stall was not seen", st.maxOutstanding)
	}
}

func encodeOps(t *testing.T, ops []serveOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, op := range ops {
		b, err := json.Marshal([]any{op.due, op.path, string(op.body), op.key, op.kind})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// The same seed gives byte-identical schedules and batches; another
// seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	gen := func(seed int64) []byte {
		nextD := int64(1_000_000)
		return encodeOps(t, genServeOps(seed, refRate, 2*time.Second, popularOps(), &nextD))
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("seed 7 gave two different schedules")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}

	m := trainModel.model()
	a, b, c := genBatches(m, 2, 4, 7), genBatches(m, 2, 4, 7), genBatches(m, 2, 4, 8)
	for i := range a {
		if !a[i].X.AllClose(b[i].X, 0) || !equalInts(a[i].Labels, b[i].Labels) {
			t.Errorf("seed 7 batch %d differs between draws", i)
		}
	}
	if a[0].X.AllClose(c[0].X, 0) {
		t.Error("seeds 7 and 8 drew the same batch")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The schedule's mix is close to the documented shares.
func TestScheduleMix(t *testing.T) {
	nextD := int64(0)
	ops := genServeOps(1, 10000, 2*time.Second, popularOps(), &nextD)
	n := map[string]int{}
	for _, op := range ops {
		n[op.kind]++
	}
	share := func(k string) float64 { return float64(n[k]) / float64(len(ops)) }
	if s := share("hit"); s < 0.83 || s > 0.87 {
		t.Errorf("popular share %.3f, want about 0.85", s)
	}
	if s := share("sweep"); s < 0.01 || s > 0.03 {
		t.Errorf("sweep share %.3f, want about 0.02", s)
	}
	seen := map[string]bool{}
	for _, op := range ops {
		if op.kind != "hit" && seen[op.key] {
			t.Fatalf("unique key %s drawn twice", op.key)
		}
		seen[op.key] = true
	}
}
