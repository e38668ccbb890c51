// Command fixbench is the repository's end-to-end benchmark: it drives
// AIS fixes from raw NMEA bytes through the same public wiring cmd/serve
// and cmd/cluster use, to an operator, checks every alert against a
// single-process reference, and prints every metric by name with its
// unit.
//
//	bash fixbench/run.sh --workload live-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run first repeats the
// untraced measurement, then measures again with spans recorded around
// every call into the program, and reports the per-layer metrics, a
// self-time table and the tracing overhead. SIZING.md records why each
// workload exists and what it measured at the seed commit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric names one reported number with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (SIZING.md defines each per workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"fixes_per_s", "fixes/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, one group per package layer.
// A layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"ais.fixes", "count"}, {"ais.dropped", "count"}, {"ais.scan_s", "s"},
	{"feed.bytes", "bytes"}, {"feed.reconnects", "count"},
	{"stream.next_s", "s"}, {"stream.ingest_depth_max", "count"}, {"stream.ingest_overflow", "count"},
	{"tracker.busy_s", "s"}, {"tracker.critical_points", "count"}, {"tracker.compression", "ratio"},
	{"maritime.busy_s", "s"}, {"maritime.working_memory_max", "count"}, {"maritime.alerts", "count"},
	{"analytics.busy_s", "s"}, {"analytics.pair_alerts", "count"}, {"analytics.vessels_max", "count"},
	{"mod.stage_s", "s"}, {"mod.reconstruct_s", "s"}, {"mod.trips", "count"},
	{"core.slide_p50_ms", "ms"}, {"core.slide_p90_ms", "ms"}, {"core.unattributed_s", "s"}, {"core.quarantines", "count"},
	{"alertlog.append_s", "s"}, {"alertlog.appends", "count"}, {"alertlog.records", "count"}, {"alertlog.bytes", "bytes"},
	{"alertlog.tail_delay_p50_ms", "ms"}, {"alertlog.tail_delay_p99_ms", "ms"},
	{"alertlog.tail_lag_max", "count"}, {"alertlog.tail_skipped", "count"},
	{"serve.publish_s", "s"}, {"serve.delivered", "count"}, {"serve.dropped", "count"},
	{"serve.sse_delay_p50_ms", "ms"}, {"serve.sse_delay_p99_ms", "ms"},
	{"alert.latency_p50_ms", "ms"}, {"alert.latency_p99_ms", "ms"},
	{"operator.query_p50_ms", "ms"}, {"operator.query_p99_ms", "ms"},
	{"operator.resume_p50_ms", "ms"}, {"operator.resume_p95_ms", "ms"},
	{"checkpoint.snapshot_s", "s"}, {"checkpoint.save_s", "s"}, {"checkpoint.bytes", "bytes"}, {"checkpoint.saves", "count"},
	{"cluster.dispatch_s", "s"}, {"cluster.drain_s", "s"}, {"cluster.slides_merged", "count"},
	{"cluster.forced_merges", "count"}, {"cluster.dropped_slides", "count"},
	{"go.gc_pause_s", "s"}, {"go.gc_cycles", "count"}, {"go.alloc_bytes_per_fix", "bytes/fix"},
	{"gen.late_max_ms", "ms"},
}

// outcome is what one measured pass of a workload produced.
type outcome struct {
	setup []float64 // seconds, one per set-up repetition
	// setupPeak is VmHWM (MiB) right after the set-ups of the first
	// measured pass: with peak_rss_mb it shows which phase the peak
	// comes from.
	setupPeak float64
	// peak is VmHWM (MiB) at the end of the pass: peak_rss_mb.
	peak  float64
	fixes int // fixes decoded in the measured phase
	wall  time.Duration
	// busy, when set, is the time the program spent on the measured
	// fixes (live workloads: the sum of Gateway.Process over measured
	// slides); fixes_per_s is then fixes ÷ busy, which the open-loop
	// schedule does not pin.
	busy time.Duration
	// rates, when set, holds per-pass fixes/s; fixes_per_s is then
	// their median, robust to a burst of interference.
	rates []float64
	// alertLat is the alert path's latency (ms): per alert on the live
	// workloads, per merged slide on cluster-replay (SIZING.md).
	alertLat Sample
	// lat is the workload's operator-facing latency behind latency_*:
	// the alert path, or the view rounds on operator-reads.
	lat *Sample
	// latWindows, when set, splits lat into one-second windows of the
	// run; latency_* is then the median over the windows of each
	// window's percentile (SIZING.md, operator-reads).
	latWindows []Sample

	// Operator latencies (operator-reads): view-refresh rounds, single
	// snapshot GETs, SSE resumes.
	round, query, resume Sample

	attempted int64
	failures  map[string]int64 // failed operations by cause
	invalid   string           // non-empty: the run did not follow its schedule

	layer    map[string]float64
	samples  map[string]int // sample count behind each per-layer percentile
	selfRows []selfRow
	pipeWall time.Duration
	tr       *tracer
}

func newOutcome() *outcome {
	o := &outcome{failures: map[string]int64{},
		layer: map[string]float64{}, samples: map[string]int{}}
	o.lat = &o.alertLat
	return o
}

func (o *outcome) fail(cause string, n int64) {
	if n != 0 {
		o.failures[cause] += n
	}
}

func (o *outcome) failed() int64 {
	var n int64
	for _, v := range o.failures {
		n += v
	}
	return n
}

// endToEnd returns the outcome's end-to-end metrics.
func (o *outcome) endToEnd() map[string]float64 {
	rate := float64(o.fixes) / o.wall.Seconds()
	if o.busy > 0 {
		rate = float64(o.fixes) / o.busy.Seconds()
	}
	if len(o.rates) > 0 {
		rate = median(append([]float64(nil), o.rates...))
	}
	return map[string]float64{
		"setup_s":        median(append([]float64(nil), o.setup...)),
		"fixes_per_s":    rate,
		"latency_p50_ms": o.latency(0.50),
		"latency_p90_ms": o.latency(0.90),
		"peak_rss_mb":    o.peak,
	}
}

// latency returns the q-quantile behind latency_*: of the whole sample,
// or the median over the one-second windows of each window's quantile.
func (o *outcome) latency(q float64) float64 {
	if len(o.latWindows) == 0 {
		return o.lat.Quantile(q)
	}
	qs := make([]float64, len(o.latWindows))
	for i := range o.latWindows {
		qs[i] = o.latWindows[i].Quantile(q)
	}
	return median(qs)
}

// workload is one benchmark scenario: prepare generates its input and
// reference from the seed (untimed), run performs one measured pass.
type workload struct {
	name    string
	prepare func(seed int64, seconds int) (prepared, error)
}

// prepared is a workload ready to measure.
type prepared interface {
	run(tr *tracer, seconds int) (*outcome, error)
	inputBytes() int
}

var workloads = []workload{
	{"live-paper", prepareLivePaper},
	{"operator-reads", prepareOperatorReads},
	{"cluster-replay", prepareClusterReplay},
}

func main() {
	name := flag.String("workload", "", "workload to run (live-paper, operator-reads, cluster-replay)")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same input")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, self-time table, tracing overhead")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "fixbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		return err
	}
	t := time.Now()
	p, err := wl.prepare(seed, seconds)
	if err != nil {
		return fmt.Errorf("%s: preparing input: %w", name, err)
	}
	baseRSS, err := resetPeakRSS()
	if err != nil {
		return err
	}
	fmt.Printf("prepared %s seed %d in %.1f s: %d input bytes, %.0f MiB resident after preparation\n",
		name, seed, time.Since(t).Seconds(), p.inputBytes(), baseRSS)

	o, err := p.run(nil, seconds)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.peak = peakRSSMiB()
	report(name, "untraced", o)
	final := o
	metrics := map[string]float64{}
	units := endToEnd
	if traced {
		tr := newTracer()
		// The traced pass gets its own peak, for the overhead line.
		if _, err := resetPeakRSS(); err != nil {
			return err
		}
		ot, err := p.run(tr, seconds)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		ot.peak = peakRSSMiB()
		report(name, "traced", ot)
		printSelfTimes(os.Stdout, name, ot.selfRows, ot.pipeWall)
		fmt.Printf("spans %s: %s\n", name, spanNames(tr.snapshot()))
		base, with := o.endToEnd(), ot.endToEnd()
		for _, m := range endToEnd {
			fmt.Printf("tracing overhead %s %s: untraced %.4g traced %.4g (%+.1f%%)\n",
				name, m.name, base[m.name], with[m.name], 100*(with[m.name]/base[m.name]-1))
		}
		path := filepath.Join(buildDir(), fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := tr.writeFile(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
		final = ot
		metrics = ot.layer
		units = perLayer
	} else {
		metrics = o.endToEnd()
	}

	meta := runMeta(name, seed, seconds, traced, p.inputBytes(), baseRSS)
	samples := map[string]int{"latency": final.lat.Len(), "alert.latency": final.alertLat.Len()}
	if n := len(final.latWindows); n > 0 {
		samples["latency.windows"] = n
	}
	for k, v := range final.samples {
		samples[k] = v
	}
	meta["samples"] = samples
	metaJSON, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaJSON)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	res.Attempted = o.attempted + boolInt(traced)*final.attempted
	res.Failed = o.failed() + boolInt(traced)*final.failed()
	res.Correct = res.Failed == 0 && o.invalid == "" && final.invalid == ""
	for _, m := range units {
		v, ok := metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			if !traced {
				// An end-to-end metric without a value means the run
				// measured nothing: report it as incorrect.
				res.Correct = false
			}
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// report prints a pass's human-readable summary: end-to-end numbers
// with sample counts, failures by cause, and any operator latencies.
func report(name, mode string, o *outcome) {
	e := o.endToEnd()
	fmt.Printf("%s %s: setup_s %.3f (median of %d: %v)  fixes_per_s %.0f (%d fixes, %.3f s busy, %.3f s wall)\n",
		name, mode, e["setup_s"], len(o.setup), roundAll(o.setup), e["fixes_per_s"], o.fixes, o.busy.Seconds(), o.wall.Seconds())
	fmt.Printf("%s %s: peak_rss %.1f MiB after set-up, %.1f MiB at the end\n", name, mode, o.setupPeak, e["peak_rss_mb"])
	fmt.Printf("%s %s: latency p50 %.3f ms p90 %.3f ms p99 %.3f ms max %.3f ms (n=%d)\n",
		name, mode, e["latency_p50_ms"], e["latency_p90_ms"], o.lat.Quantile(0.99), o.lat.Max(), o.lat.Len())
	if len(o.latWindows) > 0 {
		fmt.Printf("%s %s: latency p50/p90 are medians over %d one-second windows; over the whole run p50 %.3f ms p90 %.3f ms\n",
			name, mode, len(o.latWindows), o.lat.Quantile(0.5), o.lat.Quantile(0.9))
	}
	fmt.Printf("%s %s: alert path p50 %.3f ms p99 %.3f ms (n=%d)\n",
		name, mode, o.alertLat.Quantile(0.5), o.alertLat.Quantile(0.99), o.alertLat.Len())
	if o.query.Len() > 0 || o.resume.Len() > 0 {
		fmt.Printf("%s %s: round p50 %.3f ms p99 %.3f ms (n=%d)  query_latency p50 %.3f ms p99 %.3f ms (n=%d)  resume_latency p50 %.3f ms p95 %.3f ms (n=%d)\n",
			name, mode, o.round.Quantile(0.5), o.round.Quantile(0.99), o.round.Len(),
			o.query.Quantile(0.5), o.query.Quantile(0.99), o.query.Len(),
			o.resume.Quantile(0.5), o.resume.Quantile(0.95), o.resume.Len())
	}
	causes := make([]string, 0, len(o.failures))
	for c := range o.failures {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	fmt.Printf("%s %s: attempted %d failed %d failed_frac %.6g", name, mode, o.attempted, o.failed(),
		float64(o.failed())/math.Max(1, float64(o.attempted)))
	for _, c := range causes {
		fmt.Printf(" %s=%d", c, o.failures[c])
	}
	fmt.Println()
	if o.invalid != "" {
		fmt.Printf("%s %s: INVALID: %s\n", name, mode, o.invalid)
	}
	if len(o.samples) > 0 {
		keys := make([]string, 0, len(o.samples))
		for k := range o.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s %s: per-layer percentile samples:", name, mode)
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, o.samples[k])
		}
		fmt.Println()
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// buildDir is where the benchmark keeps its binary, scratch state and
// span files: .bench_build under the working directory (the checkout
// root), or $CARGO_TARGET_DIR when set.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
