package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/maritime"
)

// TestRunLoadAcrossReplicas is an in-process smoke of the multi-replica
// load path: two replica hubs fed the same pre-stamped envelopes (as a
// log tailer would), subscribers spread round-robin over both, and the
// report must show traffic through each endpoint with no stream errors.
func TestRunLoadAcrossReplicas(t *testing.T) {
	var srvs []*httptest.Server
	var hubs []*Hub
	for i := 0; i < 2; i++ {
		hub := NewHub(128)
		rp := NewReplica(hub, ReplicaOptions{Name: "load-test", SubscriberQueue: 512, Heartbeat: 50 * time.Millisecond})
		srv := httptest.NewServer(rp.Handler())
		defer srv.Close()
		hubs = append(hubs, hub)
		srvs = append(srvs, srv)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		slide := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
		var seq uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				seq++
				env := Envelope{
					Seq:       seq,
					Slide:     slide,
					Published: time.Now(),
					Alert:     maritime.Alert{CE: "speeding", AreaID: "a1", Vessel: 237000001, Time: slide},
				}
				for _, h := range hubs {
					h.PublishEnvelopes([]Envelope{env})
				}
			}
		}
	}()

	rep := RunLoad(context.Background(), LoadOptions{
		BaseURLs:    []string{srvs[0].URL, srvs[1].URL},
		Subscribers: 6,
		Duration:    600 * time.Millisecond,
	})
	cancel()
	<-pubDone

	if rep.Errors != 0 {
		t.Fatalf("load run reported %d stream errors: %+v", rep.Errors, rep)
	}
	if rep.Replicas != 2 || len(rep.PerReplica) != 2 {
		t.Fatalf("report covers %d replicas (per-replica %v), want 2", rep.Replicas, rep.PerReplica)
	}
	if rep.Events == 0 {
		t.Fatalf("no events delivered: %+v", rep)
	}
	for i, n := range rep.PerReplica {
		if n == 0 {
			t.Errorf("replica %d delivered nothing: %+v", i, rep)
		}
	}
	if rep.Max <= 0 {
		t.Errorf("latency histogram empty (max=%s) despite %d events", rep.Max, rep.Events)
	}
}

// TestLatencyHistPercentilesCappedAtMax fills a single power-of-two
// bucket ([65.536 ms, 131.072 ms)) with samples whose maximum is far
// below the bucket's upper bound: every reported percentile must stay
// at or below the largest observed sample.
func TestLatencyHistPercentilesCappedAtMax(t *testing.T) {
	var h latencyHist
	for ms := 66; ms <= 76; ms++ {
		h.observe(time.Duration(ms) * time.Millisecond)
	}
	maxD := time.Duration(h.max.Load())
	if maxD != 76*time.Millisecond {
		t.Fatalf("max = %v, want 76ms", maxD)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if p := h.percentile(q); p > maxD || p < 66*time.Millisecond {
			t.Errorf("p%.0f = %v, want within [66ms, max %v]", q*100, p, maxD)
		}
	}
}
