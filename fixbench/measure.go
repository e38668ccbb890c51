package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
)

// run performs one measured pass: setupReps set-ups (the median is
// setup_s), the last of which goes on to the measured schedule.
func (p *livePrep) run(tr *tracer, seconds int) (*outcome, error) {
	o := newOutcome()
	var r *liveRig
	for i := 0; i < p.spec.setupReps; i++ {
		last := i == p.spec.setupReps-1
		var rtr *tracer
		if last {
			rtr = tr
		}
		rig, d, err := p.setup(rtr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		o.setup = append(o.setup, d.Seconds())
		if !last {
			rig.close()
			continue
		}
		o.setupPeak = peakRSSMiB()
		r = rig
	}
	defer r.close()
	return o, r.measure(o, seconds)
}

// received is one envelope as the SSE client saw it.
type received struct {
	env serve.Envelope
	at  time.Time
}

// measure starts the schedule, waits for the stream to end and checks
// everything the operator saw against the reference.
func (r *liveRig) measure(o *outcome, seconds int) error {
	p := r.p
	head := r.alog.LastSeq()
	ms0 := memStats()

	// The SSE client (live-paper) resumes on the replica after the
	// warm-up; the operator client (operator-reads) runs its mix
	// against the writer.
	var got []received
	var gotMu sync.Mutex
	var sseErr error
	sseCtx, sseStop := context.WithCancel(context.Background())
	defer sseStop()
	var clients sync.WaitGroup
	if p.spec.replica {
		clients.Add(1)
		go func() {
			defer clients.Done()
			sseErr = serve.StreamAlerts(sseCtx, r.rURL+"/events", head, func(e serve.Envelope) {
				at := time.Now()
				gotMu.Lock()
				got = append(got, received{e, at})
				gotMu.Unlock()
			})
		}()
		for deadline := time.Now().Add(10 * time.Second); r.rhub.Totals().Subscribers < 1; {
			if time.Now().After(deadline) {
				return fmt.Errorf("SSE client did not connect")
			}
			time.Sleep(time.Millisecond)
		}
	}
	var op *opClient
	stopOp := make(chan struct{})
	if !p.spec.replica {
		op = newOperator(r, p.seed)
		clients.Add(1)
		go func() {
			defer clients.Done()
			op.loop(stopOp)
		}()
	}

	t0 := r.gen.begin()
	r.mu.Lock()
	r.measureFrom = t0
	r.mu.Unlock()
	select {
	case <-r.pipeDone:
	case <-time.After(time.Duration(3*seconds)*time.Second + 60*time.Second):
		return fmt.Errorf("stream did not end in time")
	}
	close(stopOp)
	if p.spec.replica {
		// Every published alert reaches the client, or the wait times
		// out and the shortfall counts as missing.
		total := r.gw.Hub().Totals().Published
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			gotMu.Lock()
			done := len(got) > 0 && got[len(got)-1].env.Seq >= total
			gotMu.Unlock()
			if done {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		sseStop()
	}
	clients.Wait()
	ms1 := memStats()

	// Measured slides: fixes, wall and the writer-side output check.
	var last time.Time
	refIdx := 0
	var alertsOut int
	for _, s := range r.slides {
		for _, a := range s.rep.Alerts {
			if refIdx >= len(p.ref.keys) || alertKey(s.query, a) != p.ref.keys[refIdx] {
				o.fail("writer_alert_mismatch", 1)
			}
			refIdx++
		}
		alertsOut += len(s.rep.Alerts)
		if !s.measured {
			continue
		}
		o.fixes += s.rep.FixesIn
		o.busy += s.procDur
		last = s.end
		if !p.spec.replica {
			// operator-reads: an alert is delivered when the hub publish
			// that carries it returns.
			lat := s.publish.Sub(r.gen.due(s.query))
			for range s.rep.Alerts {
				o.alertLat.AddDuration(lat)
			}
		}
	}
	if alertsOut < len(p.ref.keys) {
		o.fail("writer_alert_missing", int64(len(p.ref.keys)-alertsOut))
	}
	if last.IsZero() {
		return fmt.Errorf("no measured slide")
	}
	o.wall = last.Sub(t0)
	offered := p.endLine - p.warmEnd
	o.attempted = int64(offered + p.measured)

	if p.spec.replica {
		if sseErr != nil {
			o.fail("sse_error", 1)
		}
		r.checkSSE(o, got, head)
	} else {
		op.finish(o)
	}
	r.checkLog(o)

	h := r.sys.Health()
	o.fail("ingest_overflow", int64(r.buf.Dropped()))
	o.fail("decode_drop", int64(r.client.Stats().Dropped()))
	o.fail("quarantine", int64(h.Quarantined+h.PanicsRecovered+h.WatchdogTrips))
	o.fail("log_append_error", int64(r.gw.Hub().LogAppendErrors()))
	r.mu.Lock()
	o.fail("checkpoint_error", int64(r.ckptErrs))
	r.mu.Unlock()
	lateMax, _, _, _ := r.gen.stats()
	if slideWall := time.Duration(float64(p.spec.slide) / p.spec.speedup); lateMax > slideWall/2 {
		o.invalid = fmt.Sprintf("generator fell behind its schedule by %s (limit %s)", lateMax, slideWall/2)
	}
	if r.tr != nil {
		r.layerMetrics(o, got, ms0, ms1)
	}
	return nil
}

// checkSSE verifies the replica client's stream: contiguous ids from
// head+1, each envelope equal to the reference alert of its sequence,
// nothing missing or duplicated. It also computes alert latency: SSE
// receive time minus the instant the alert's slide was due.
func (r *liveRig) checkSSE(o *outcome, got []received, head uint64) {
	keys := r.p.ref.keys
	next := head + 1
	for _, g := range got {
		e := g.env
		switch {
		case e.Marker != "":
			o.fail("sse_marker", int64(e.Missing))
			continue
		case e.Seq < next:
			o.fail("sse_duplicate", 1)
			continue
		case e.Seq > next:
			o.fail("sse_gap", int64(e.Seq-next))
		}
		next = e.Seq + 1
		if e.Seq > uint64(len(keys)) || alertKey(e.Slide, e.Alert) != keys[e.Seq-1] {
			o.fail("sse_mismatch", 1)
			continue
		}
		o.alertLat.AddDuration(g.at.Sub(r.gen.due(e.Slide)))
	}
	if want := uint64(len(keys)) + 1; next < want {
		o.fail("sse_missing", int64(want-next))
	}
}

// checkLog verifies the durable log against the reference: every
// retained record is the reference alert of its sequence and the log
// ends at the last reference alert.
func (r *liveRig) checkLog(o *outcome) {
	keys := r.p.ref.keys
	first := r.alog.FirstSeq()
	if first == 0 {
		if len(keys) > 0 {
			o.fail("log_missing", int64(len(keys)))
		}
		return
	}
	next := first
	for cursor := first - 1; ; {
		batch, err := r.alog.ReadSince(cursor, 4096)
		if err != nil {
			o.fail("log_read_error", 1)
			return
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			if e.Seq != next {
				o.fail("log_gap", 1)
			}
			next = e.Seq + 1
			if e.Seq > uint64(len(keys)) || alertKey(e.Slide, e.Alert) != keys[e.Seq-1] {
				o.fail("log_mismatch", 1)
			}
		}
		cursor = batch[len(batch)-1].Seq
	}
	switch want := uint64(len(keys)) + 1; {
	case next < want:
		o.fail("log_missing", int64(want-next))
	case next > want:
		o.fail("log_extra", int64(next-want))
	}
}
