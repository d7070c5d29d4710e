package serve

import (
	"time"

	"paradl/internal/metrics"
)

// serverMetrics holds the server's counters in a metrics.Registry —
// each Server owns its own registry (a process-global one would
// collide across servers in tests), rendered as Prometheus text
// exposition on /metrics/prom and snapshotted in-process by
// Server.Stats. The registry is shared:
// trace recorders can publish per-phase histograms into it (see
// trace.Recorder.PublishMetrics) and they ride the same scrape.
type serverMetrics struct {
	reg          *metrics.Registry
	requests     *metrics.CounterVec // per-endpoint request counts
	hits         *metrics.Counter    // cache hits
	misses       *metrics.Counter    // cache misses (includes coalesced joiners)
	coalesced    *metrics.Counter    // requests that joined an in-flight compute
	computations *metrics.Counter    // response computations actually performed
	projections  *metrics.Counter    // individual core.Project evaluations
	errors       *metrics.Counter    // requests answered with an error status
	shed         *metrics.Counter    // requests shed by admission (503 + Retry-After)
	latency      *metrics.Histogram  // request latency histogram
}

// latencyBuckets are the request-latency histogram's upper bounds in
// seconds (100 µs to 1 s); the exposition adds the final +Inf bucket.
var latencyBuckets = []float64{100e-6, 500e-6, 1e-3, 5e-3, 25e-3, 100e-3, 1}

func newMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg:          reg,
		requests:     reg.CounterVec("paradl_serve_requests_total", "Planning requests by endpoint.", "endpoint"),
		hits:         reg.Counter("paradl_serve_cache_hits_total", "Responses served from the projection cache."),
		misses:       reg.Counter("paradl_serve_cache_misses_total", "Requests that missed the projection cache."),
		coalesced:    reg.Counter("paradl_serve_singleflight_coalesced_total", "Requests that joined an in-flight computation."),
		computations: reg.Counter("paradl_serve_computations_total", "Response computations actually performed."),
		projections:  reg.Counter("paradl_serve_projections_total", "Individual core.Project evaluations."),
		errors:       reg.Counter("paradl_serve_errors_total", "Requests answered with an error status."),
		shed:         reg.Counter("paradl_serve_shed_total", "Requests shed by admission control."),
		latency:      reg.Histogram("paradl_serve_request_duration_seconds", "Request latency.", latencyBuckets),
	}
}

// observe records one request latency in the histogram.
func (m *serverMetrics) observe(d time.Duration) {
	m.latency.Observe(d.Seconds())
}

// Stats is a point-in-time snapshot of the server's counters, for
// tests and the load harness.
type Stats struct {
	Requests     map[string]int64
	CacheHits    int64
	CacheMisses  int64
	Coalesced    int64
	Computations int64
	Projections  int64
	Errors       int64
	Shed         int64
}

func (m *serverMetrics) stats() Stats {
	s := Stats{Requests: map[string]int64{}}
	for k, v := range m.requests.Snapshot() {
		s.Requests[k] = int64(v)
	}
	s.CacheHits = m.hits.Int()
	s.CacheMisses = m.misses.Int()
	s.Coalesced = m.coalesced.Int()
	s.Computations = m.computations.Int()
	s.Projections = m.projections.Int()
	s.Errors = m.errors.Int()
	s.Shed = m.shed.Int()
	return s
}
