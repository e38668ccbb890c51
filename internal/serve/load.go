package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures a fan-out load run against a gateway or a set
// of replica gateways.
type LoadOptions struct {
	// BaseURL is the gateway root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when non-empty, overrides BaseURL with several serving
	// endpoints (the writer gateway and/or its replicas); subscribers
	// are spread round-robin across them, measuring the whole serving
	// tier instead of one node.
	BaseURLs []string
	// Subscribers is how many concurrent SSE clients to drive.
	Subscribers int
	// Duration bounds the run; the clients disconnect when it elapses.
	Duration time.Duration
	// Query is an optional raw filter query appended to /events, e.g.
	// "mmsi=237000101" or "ce=illegalShipping".
	Query string
}

// LoadReport is the outcome of a load run: aggregate delivery
// throughput and the tail of the publish→receive latency distribution
// across every subscriber.
type LoadReport struct {
	Subscribers int
	Replicas    int           // serving endpoints the subscribers were spread over
	Errors      int           // subscriber streams that ended in error
	Events      uint64        // envelopes received across all subscribers
	PerReplica  []uint64      // envelopes received via each endpoint, in BaseURLs order
	Elapsed     time.Duration // wall-clock run time
	P50         time.Duration // delivery latency percentiles
	P95         time.Duration
	P99         time.Duration
	Max         time.Duration
}

// Rate returns the aggregate delivery rate in events per second.
func (r LoadReport) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// String renders the report for logs.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"%d subscribers over %d replicas: %d events in %s (%.0f ev/s, %d errors); latency p50=%s p95=%s p99=%s max=%s",
		r.Subscribers, r.Replicas, r.Events, r.Elapsed.Round(time.Millisecond), r.Rate(), r.Errors,
		r.P50.Round(10*time.Microsecond), r.P95.Round(10*time.Microsecond),
		r.P99.Round(10*time.Microsecond), r.Max.Round(10*time.Microsecond))
}

// latencyHist is a lock-free exponential histogram of delivery
// latencies: bucket 0 counts samples under 1 µs and bucket i > 0 those
// in [2^(i-1), 2^i) microseconds. Percentiles are reported as the upper
// bound of the bucket holding the rank, capped at the observed maximum —
// coarse but cheap enough to sample every event from 10k concurrent
// subscribers without perturbing the measurement.
type latencyHist struct {
	buckets [40]atomic.Uint64
	max     atomic.Int64 // nanoseconds
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	i := 0
	if us > 0 {
		i = int(math.Log2(float64(us))) + 1
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i].Add(1)
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// percentile returns the upper bound of the bucket containing rank
// q·total, or the observed maximum when that is lower: no percentile
// may exceed the largest sample.
func (h *latencyHist) percentile(q float64) time.Duration {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			return min(time.Duration(1<<uint(i))*time.Microsecond, time.Duration(h.max.Load()))
		}
	}
	return time.Duration(h.max.Load())
}

// RunLoad drives opt.Subscribers concurrent SSE clients — spread
// round-robin over the configured endpoints — for opt.Duration and
// reports aggregate throughput and delivery-latency tails. Latency is
// receive time minus the envelope's Published stamp, so it covers
// fan-out queueing (and, via a replica, the log append + tail), SSE
// encoding and the wire.
func RunLoad(ctx context.Context, opt LoadOptions) LoadReport {
	if opt.Subscribers <= 0 {
		opt.Subscribers = 1
	}
	bases := opt.BaseURLs
	if len(bases) == 0 {
		bases = []string{opt.BaseURL}
	}
	urls := make([]string, len(bases))
	for i, b := range bases {
		urls[i] = strings.TrimRight(b, "/") + "/events"
		if opt.Query != "" {
			urls[i] += "?" + opt.Query
		}
	}
	runCtx, cancel := context.WithTimeout(ctx, opt.Duration)
	defer cancel()

	var (
		hist   latencyHist
		events atomic.Uint64
		errs   atomic.Int64
		wg     sync.WaitGroup
	)
	perReplica := make([]atomic.Uint64, len(urls))
	start := time.Now()
	for i := 0; i < opt.Subscribers; i++ {
		wg.Add(1)
		go func(replica int) {
			defer wg.Done()
			err := StreamAlerts(runCtx, urls[replica], 0, func(e Envelope) {
				events.Add(1)
				perReplica[replica].Add(1)
				hist.observe(time.Since(e.Published))
			})
			if err != nil {
				errs.Add(1)
			}
		}(i % len(urls))
	}
	wg.Wait()
	rep := LoadReport{
		Subscribers: opt.Subscribers,
		Replicas:    len(urls),
		Errors:      int(errs.Load()),
		Events:      events.Load(),
		PerReplica:  make([]uint64, len(urls)),
		Elapsed:     time.Since(start),
		P50:         hist.percentile(0.50),
		P95:         hist.percentile(0.95),
		P99:         hist.percentile(0.99),
		Max:         time.Duration(hist.max.Load()),
	}
	for i := range perReplica {
		rep.PerReplica[i] = perReplica[i].Load()
	}
	return rep
}
