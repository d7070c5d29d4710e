package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// the program: a workload, a leg or rate, a step, a request, a
// grid cell, a layer call or a kernel call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps every span of a traced run in memory; write dumps them
// when the run ends. A nil *spans records nothing, which is how the
// untraced runs pay for no tracing.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (r *spans) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, span{ID: len(r.all) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.all)
}

// end closes span id.
func (r *spans) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.all[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval as a closed span.
func (r *spans) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.all = append(r.all, span{ID: len(r.all) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return len(r.all)
}

// snapshot returns a copy of the spans recorded so far.
func (r *spans) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval its children cover. Children of one parent may
// overlap one another (two PEs, two connections), so the covered part
// is the union of their intervals clipped to the parent, not their sum.
func selfTimes(all []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(all))
	for _, s := range all {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside [lo, hi].
func covered(lo, hi int64, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// write dumps the spans as JSON to path.
func (r *spans) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
