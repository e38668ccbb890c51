package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/tracker"
)

// layerMetrics computes the live rig's per-layer metrics over the
// measured phase from the recorded spans and the counters the
// packages export.
func (r *liveRig) layerMetrics(o *outcome, got []received, ms0, ms1 runtime.MemStats) {
	L := o.layer
	r.scan.flush()
	spans := r.tr.snapshot()
	warm := r.p.warmQ.Unix()
	var scanBusy time.Duration
	for _, s := range spans {
		if s.Name == "ingest.scan" && s.Trace > warm {
			scanBusy += time.Duration(s.Busy)
		}
	}
	cs := r.client.Stats()
	L["ais.fixes"] = float64(o.fixes)
	L["ais.dropped"] = float64(cs.Dropped())
	L["ais.scan_s"] = scanBusy.Seconds()
	L["feed.bytes"] = float64(r.p.in.offs[r.p.endLine] - r.p.in.offs[r.p.warmEnd])
	L["feed.reconnects"] = float64(r.client.NetStats().Reconnects)
	L["stream.next_s"] = sumDur(spans, "stream.next").Seconds()
	L["stream.ingest_overflow"] = float64(r.buf.Dropped())

	pipelineLayers(o, r.slides, []*core.System{r.sys}, spans)
	var depth, alerts int
	var lag uint64
	for _, s := range r.slides {
		if s.measured {
			alerts += len(s.rep.Alerts)
			depth = max(depth, s.depth)
			lag = max(lag, s.tailLag)
		}
	}
	publish := sumDur(spans, "serve.publish")
	appendDur := sumDur(spans, "alertlog.append")
	L["stream.ingest_depth_max"] = float64(depth)
	L["alertlog.append_s"] = appendDur.Seconds()
	L["alertlog.appends"] = float64(countSpans(spans, "alertlog.append"))
	L["alertlog.records"] = float64(alerts)
	L["alertlog.bytes"] = float64(dirBytes(filepath.Join(r.dir, "alerts")))
	L["serve.publish_s"] = (publish - appendDur).Seconds()
	hub := r.gw.Hub().Totals()
	if r.rhub != nil {
		hub = r.rhub.Totals()
	}
	L["serve.delivered"] = float64(hub.Delivered)
	L["serve.dropped"] = float64(hub.Dropped)

	if r.tailer != nil {
		var tail, sse Sample
		r.stampMu.Lock()
		for _, g := range got {
			seq := g.env.Seq
			if seq >= uint64(len(r.applyAt)) || r.applyAt[seq] == 0 {
				continue
			}
			apply := r.applyAt[seq]
			if app := r.appendAt[seq]; app != 0 {
				tail.AddDuration(time.Duration(apply - app))
			}
			sse.AddDuration(g.at.Sub(time.Unix(0, apply)))
		}
		r.stampMu.Unlock()
		L["alertlog.tail_delay_p50_ms"] = tail.Quantile(0.5)
		L["alertlog.tail_delay_p99_ms"] = tail.Quantile(0.99)
		o.samples["alertlog.tail_delay"] = tail.Len()
		L["alertlog.tail_lag_max"] = float64(lag)
		L["alertlog.tail_skipped"] = float64(r.tailer.Stats().Skipped)
		L["serve.sse_delay_p50_ms"] = sse.Quantile(0.5)
		L["serve.sse_delay_p99_ms"] = sse.Quantile(0.99)
		o.samples["serve.sse_delay"] = sse.Len()
	}
	alertLayers(o)
	if o.query.Len() > 0 {
		L["operator.query_p50_ms"] = o.query.Quantile(0.5)
		L["operator.query_p99_ms"] = o.query.Quantile(0.99)
		o.samples["operator.query"] = o.query.Len()
	}
	if o.resume.Len() > 0 {
		L["operator.resume_p50_ms"] = o.resume.Quantile(0.5)
		L["operator.resume_p95_ms"] = o.resume.Quantile(0.95)
		o.samples["operator.resume"] = o.resume.Len()
	}
	r.mu.Lock()
	var snap, save time.Duration
	for i := range r.ckptSnap {
		snap += r.ckptSnap[i]
		save += r.ckptSave[i]
	}
	L["checkpoint.snapshot_s"] = snap.Seconds()
	L["checkpoint.save_s"] = save.Seconds()
	L["checkpoint.saves"] = float64(len(r.ckptSave))
	r.mu.Unlock()
	if r.mgr != nil {
		L["checkpoint.bytes"] = float64(dirBytes(r.mgr.Dir()))
	}
	gcRuntime(L, ms0, ms1, o.fixes)
	late, _, _, _ := r.gen.stats()
	L["gen.late_max_ms"] = float64(late) / 1e6

	// The pipeline goroutine's measured wall: schedule start to the end
	// of its last span.
	roots := map[string]bool{"stream.next": true, "core.process": true, "checkpoint": true}
	var end int64
	for _, s := range spans {
		if roots[s.Name] && s.End > end {
			end = s.End
		}
	}
	r.mu.Lock()
	from := r.measureFrom
	r.mu.Unlock()
	o.pipeWall = time.Duration(end) - from.Sub(r.tr.origin)
	o.selfRows = selfTimes(spans, roots, o.pipeWall)
}

// alertLayers reports the alert path's latency on every workload.
func alertLayers(o *outcome) {
	o.layer["alert.latency_p50_ms"] = o.alertLat.Quantile(0.5)
	o.layer["alert.latency_p99_ms"] = o.alertLat.Quantile(0.99)
	o.samples["alert.latency"] = o.alertLat.Len()
}

// gcRuntime fills the Go runtime layer from two MemStats snapshots.
func gcRuntime(L map[string]float64, ms0, ms1 runtime.MemStats, fixes int) {
	L["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	L["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if fixes > 0 {
		L["go.alloc_bytes_per_fix"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(fixes)
	}
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// traceStages records the SlideReport stage timings as children of a
// core.process span, laid end to end from its start.
func traceStages(tr *tracer, parent int, q int64, at time.Time, tm core.Timings) {
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"tracker.slide", tm.Tracking}, {"mod.stage", tm.Staging}, {"mod.reconstruct", tm.Reconstruction},
		{"mod.load", tm.Loading}, {"maritime.advance", tm.Recognition}, {"analytics.slide", tm.Analytics},
	} {
		if st.d > 0 {
			tr.add(st.name, q, parent, at, at.Add(st.d))
			at = at.Add(st.d)
		}
	}
}

// pipelineLayers fills the per-layer metrics every core.System
// workload shares, over the measured slides; systems are the pipelines
// whose tracker, store and health the counters sum (the cluster's
// workers, or the one system).
func pipelineLayers(o *outcome, recs []slideRec, systems []*core.System, spans []span) {
	L := o.layer
	var slideMs Sample
	var trk, rtec, ana, stage, recon time.Duration
	var crit, single, pair, wm, avs int
	for _, s := range recs {
		if !s.measured {
			continue
		}
		tm := s.rep.Timings
		slideMs.AddDuration(s.procDur)
		trk += tm.Tracking
		rtec += tm.Recognition
		ana += tm.Analytics
		stage += tm.Staging
		recon += tm.Reconstruction + tm.Loading
		crit += s.rep.CriticalPoints
		for _, a := range s.rep.Alerts {
			if a.Vessel2 != 0 {
				pair++
			} else {
				single++
			}
		}
		wm = max(wm, s.wm)
		avs = max(avs, s.avessels)
	}
	var ts tracker.Stats
	var trips, quar int
	for _, sys := range systems {
		st := sys.Tracker().Stats()
		ts.FixesIn += st.FixesIn
		ts.Critical += st.Critical
		trips += sys.Store().Table4Stats().Trips
		h := sys.Health()
		quar += h.Quarantined + h.PanicsRecovered
	}
	L["tracker.busy_s"] = trk.Seconds()
	L["tracker.critical_points"] = float64(crit)
	L["tracker.compression"] = ts.CompressionRatio()
	L["maritime.busy_s"] = rtec.Seconds()
	L["maritime.working_memory_max"] = float64(wm)
	L["maritime.alerts"] = float64(single)
	L["analytics.busy_s"] = ana.Seconds()
	L["analytics.pair_alerts"] = float64(pair)
	L["analytics.vessels_max"] = float64(avs)
	L["mod.stage_s"] = stage.Seconds()
	L["mod.reconstruct_s"] = recon.Seconds()
	L["mod.trips"] = float64(trips)
	L["core.slide_p50_ms"] = slideMs.Quantile(0.5)
	L["core.slide_p90_ms"] = slideMs.Quantile(0.9)
	o.samples["core.slide"] = slideMs.Len()
	for _, s := range selfTimes(spans, map[string]bool{"core.process": true}, 0) {
		if s.name == "core.process" {
			L["core.unattributed_s"] = s.self.Seconds()
		}
	}
	L["core.quarantines"] = float64(quar)
}
