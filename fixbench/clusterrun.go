package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/maritime"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// cluster-replay: the paper's fleet at ω = 1 h, β = 10 min, pairwise
// off, through the cmd/cluster + cmd/worker wiring in one process:
// in-memory stream → ais.Scanner → Router.Dispatch → 2 workers →
// coordinator over loopback. The output must be byte-identical to the
// single-process reference over the same bytes.
//
// The stream is the fleet's NMEA decoded and written in the slice
// wire's CSV form (ais.WriteFixCSV), the form the router forwards to its
// workers. The cluster's determinism contract is stated over fixes in
// that form (internal/cluster/equiv_test.go); over NMEA input the router
// rounds positions to 1e-6° and the cluster can differ from the single
// process (SIZING.md, finding 5).
const (
	clusterVessels = 6425
	clusterHours   = 6
	clusterWorkers = 2
	clusterWindow  = time.Hour
	clusterSlide   = 10 * time.Minute
	// minPasses is the fewest set-up + replay passes per run; passes
	// continue until the run's seconds are spent.
	clusterMinPasses = 3
)

type clusterPrep struct {
	in *input
	// wire is the stream every pass replays; ref, the oracle, is the
	// single process over it.
	wire  []byte
	ref   *refRun
	warmQ time.Time
}

func (p *clusterPrep) inputBytes() int { return len(p.wire) }

func prepareClusterReplay(seed int64, seconds int) (prepared, error) {
	in, err := generate(seed, clusterVessels, clusterHours*time.Hour)
	if err != nil {
		return nil, err
	}
	p := &clusterPrep{in: in}
	p.warmQ = in.start().Truncate(clusterSlide).Add(clusterWindow)
	p.wire, err = wireForm(in)
	if err != nil {
		return nil, err
	}
	// The NMEA is not needed again; dropping it keeps it out of the
	// resident set the measured passes report.
	in.nmea = nil
	p.ref, err = reference(in.world, bytes.NewReader(p.wire), clusterWindow, clusterSlide, false)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// coordSink collects the coordinator's merged slides.
type coordSink struct {
	mu     sync.Mutex
	keys   []string
	merged []mergedSlide
	cond   *sync.Cond
	last   time.Time
}

type mergedSlide struct {
	query  time.Time
	at     time.Time
	alerts int
	fixes  int
	rep    core.SlideReport
}

func (s *coordSink) Consume(rep core.SlideReport) {
	at := time.Now()
	s.mu.Lock()
	s.keys = appendKeys(s.keys, rep)
	s.merged = append(s.merged, mergedSlide{query: rep.Query, at: at, alerts: len(rep.Alerts), fixes: rep.FixesIn, rep: rep})
	s.last = rep.Query
	s.mu.Unlock()
	s.cond.Broadcast()
}

// waitFor blocks until slide q is merged or the deadline passes.
func (s *coordSink) waitFor(q time.Time, deadline time.Time) bool {
	stop := time.AfterFunc(time.Until(deadline), func() { s.cond.Broadcast() })
	defer stop.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.last.Before(q) && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return !s.last.Before(q)
}

// clusterRig is one stood-up cluster.
type clusterRig struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	router *cluster.Router
	coord  *cluster.Coordinator
	hub    *serve.Hub
	sink   *coordSink
	werr   []error
	// systems are the workers' pipelines, read after they stop.
	systems []*core.System
}

func (p *clusterPrep) setup() (*clusterRig, error) {
	r := &clusterRig{sink: &coordSink{}}
	r.sink.cond = sync.NewCond(&r.sink.mu)
	r.ctx, r.cancel = context.WithCancel(context.Background())
	// An archive replay dispatches faster than workers consume: the
	// slice rings must retain the whole stream (as cmd/benchpipe's
	// cluster rows do), or unread fixes are trimmed.
	r.router = cluster.NewRouter(cluster.RouterOptions{Workers: clusterWorkers, RetainFixes: len(p.in.times) + 1})
	addrs, err := r.router.ListenSlices(r.ctx, nil)
	if err != nil {
		r.close()
		return nil, err
	}
	r.hub = serve.NewHub(serveRing)
	r.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Workers:     clusterWorkers,
		Slide:       clusterSlide,
		WindowRange: clusterWindow,
		Recognition: maritime.Config{Window: clusterWindow},
		Vessels:     p.in.vessels,
		Areas:       p.in.areas,
		QueueCap:    64,
		Hub:         r.hub,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.coord.AddAlertSink(r.sink)
	coordAddr, err := r.coord.ListenAndServe(r.ctx, "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	grid := p.in.start().Truncate(clusterSlide)
	r.werr = make([]error, clusterWorkers)
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			ID: i, Workers: clusterWorkers,
			Router: addrs[i].String(), Coordinator: coordAddr.String(),
			System: core.Config{
				Window:        stream.WindowSpec{Range: clusterWindow, Slide: clusterSlide},
				Tracker:       tracker.DefaultParams(),
				Recognition:   maritime.Config{Window: clusterWindow},
				TrackerShards: 1,
			},
			Vessels: p.in.vessels, Areas: p.in.areas, Ports: p.in.ports,
			GridStart:     grid,
			DeadPeerAfter: 10 * time.Second,
		})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		r.systems = append(r.systems, w.System())
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			if err := w.Run(r.ctx); err != nil && r.ctx.Err() == nil {
				r.werr[i] = err
			}
		}(i)
	}
	return r, nil
}

func (r *clusterRig) close() {
	r.cancel()
	if r.hub != nil {
		r.hub.Close()
	}
	r.wg.Wait()
}

// dispatcher feeds the router from the scanner and records, per slice,
// when each slide was closed: the first dispatch of a fix past it.
type dispatcher struct {
	router *cluster.Router
	sc     stream.FixSource
	grid   time.Time
	// closed[s] is the newest query time slice s has seen a fix past
	// (the grid origin before any).
	closed  [clusterWorkers]time.Time
	closeAt map[time.Time][clusterWorkers]time.Time
	fixes   int
	busy    time.Duration
	// scan, when timed, is the time spent in Scan (traced passes only:
	// two clock reads per fix would show in fixes_per_s).
	timeScan bool
	scan     time.Duration
	// Per-slide aggregation for the traced pass: ingest.scan and
	// cluster.dispatch spans cover a slide's first to last fix.
	tr                   *tracer
	aggQ                 int64
	aggFrom, aggTo       time.Time
	aggScan, aggDispatch time.Duration
}

// flushAgg records the current slide's aggregated spans.
func (d *dispatcher) flushAgg() {
	if d.tr != nil && d.aggQ != 0 {
		d.tr.addBusy("ingest.scan", d.aggQ, d.aggFrom, d.aggTo, d.aggScan)
		d.tr.addBusy("cluster.dispatch", d.aggQ, d.aggFrom, d.aggTo, d.aggDispatch)
	}
	d.aggQ, d.aggScan, d.aggDispatch = 0, 0, 0
}

// run dispatches until a fix past `until` has reached every slice (zero
// until: the whole stream), reporting whether the stream has more.
func (d *dispatcher) run(until time.Time) bool {
	for {
		var t0 time.Time
		if d.timeScan {
			t0 = time.Now()
		}
		if !d.sc.Scan() {
			return false
		}
		var scan time.Duration
		if d.timeScan {
			scan = time.Since(t0)
			d.scan += scan
		}
		f := d.sc.Fix()
		t := time.Now()
		d.router.Dispatch(f)
		now := time.Now()
		d.busy += now.Sub(t)
		d.fixes++
		if d.tr != nil {
			if q := f.Time.Truncate(clusterSlide).Add(clusterSlide).Unix(); q != d.aggQ {
				d.flushAgg()
				d.aggQ, d.aggFrom = q, t0
			}
			d.aggTo = now
			d.aggScan += scan
			d.aggDispatch += now.Sub(t)
		}
		s := tracker.ShardOf(f.MMSI, clusterWorkers)
		if d.closed[s].IsZero() {
			d.closed[s] = d.grid
		}
		for q := d.closed[s].Add(clusterSlide); f.Time.After(q); q = q.Add(clusterSlide) {
			at := d.closeAt[q]
			at[s] = now
			d.closeAt[q] = at
			d.closed[s] = q
		}
		if !until.IsZero() && f.Time.After(until) {
			done := true
			for _, c := range d.closed {
				done = done && !c.Before(until)
			}
			if done {
				return true
			}
		}
	}
}

// due returns the instant slide q was closed in every slice.
func (d *dispatcher) due(q time.Time) (time.Time, bool) {
	at, ok := d.closeAt[q]
	if !ok {
		return time.Time{}, false
	}
	var m time.Time
	for _, t := range at {
		if t.IsZero() {
			return time.Time{}, false
		}
		if t.After(m) {
			m = t
		}
	}
	return m, true
}

// run repeats passes — stand the cluster up, replay the first ω
// (set-up), replay the rest (measured) — until the run's seconds are
// spent. A traced run records spans on the first pass only.
func (p *clusterPrep) run(tr *tracer, seconds int) (*outcome, error) {
	o := newOutcome()
	budget := time.Now().Add(time.Duration(seconds) * time.Second)
	for pass := 0; pass < clusterMinPasses || time.Now().Before(budget); pass++ {
		start := time.Now()
		r, err := p.setup()
		if err != nil {
			return nil, err
		}
		sc := ais.NewScanner(bytes.NewReader(p.wire))
		d := &dispatcher{router: r.router, sc: sc, grid: p.in.start().Truncate(clusterSlide),
			closeAt: map[time.Time][clusterWorkers]time.Time{}}
		if !d.run(p.warmQ) || !r.sink.waitFor(p.warmQ, time.Now().Add(120*time.Second)) {
			r.close()
			return nil, fmt.Errorf("cluster warm-up did not complete")
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		if pass == 0 {
			o.setupPeak = peakRSSMiB()
		}
		var ptr *tracer
		if pass == 0 {
			ptr = tr
		}
		err = p.measure(o, ptr, r, d, sc)
		r.close()
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (p *clusterPrep) measure(o *outcome, tr *tracer, r *clusterRig, d *dispatcher, sc *ais.Scanner) error {
	ms0 := memStats()
	fixes0, busy0 := d.fixes, d.busy
	t0 := time.Now()
	d.timeScan, d.tr = tr != nil, tr
	d.run(time.Time{})
	d.flushAgg()
	finish := time.Now()
	r.router.Finish()
	select {
	case <-r.coord.Done():
	case <-time.After(120 * time.Second):
		return fmt.Errorf("coordinator did not finish")
	}
	end := time.Now()
	r.wg.Wait()
	ms1 := memStats()
	fixes := d.fixes - fixes0
	o.fixes += fixes
	o.wall += end.Sub(t0)
	o.rates = append(o.rates, float64(fixes)/end.Sub(t0).Seconds())

	r.sink.mu.Lock()
	merged := append([]mergedSlide(nil), r.sink.merged...)
	keys := append([]string(nil), r.sink.keys...)
	r.sink.mu.Unlock()
	var recs []slideRec
	for _, m := range merged {
		if !m.query.After(p.warmQ) {
			continue
		}
		due, ok := d.due(m.query)
		if !ok {
			due = finish // closed by the end of the stream
		}
		// One sample per merged slide: closed in every slice → the
		// coordinator published its alerts (possibly none).
		o.alertLat.AddDuration(m.at.Sub(due))
		recs = append(recs, slideRec{query: m.query, rep: m.rep, procDur: m.at.Sub(due), measured: true})
	}
	compareKeys(o, keys, p.ref.keys)
	o.attempted += int64(fixes + len(p.ref.keys))
	st := r.coord.Stats()
	rst := r.router.Stats()
	var trimmed int
	for _, s := range rst.Slices {
		trimmed += s.Trimmed
	}
	var dropped int
	for _, n := range st.DropsByCause {
		dropped += n
	}
	o.fail("router_trimmed", int64(trimmed))
	o.fail("forced_merge", int64(st.ForcedMerges))
	o.fail("dropped_slide", int64(dropped))
	o.fail("decode_drop", int64(sc.Stats().Dropped()))
	for i, err := range r.werr {
		if err != nil {
			o.fail(fmt.Sprintf("worker%d_error", i), 1)
		}
	}

	if tr != nil {
		L := o.layer
		L["ais.fixes"] = float64(fixes)
		L["ais.dropped"] = float64(sc.Stats().Dropped())
		L["cluster.dispatch_s"] = (d.busy - busy0).Seconds()
		L["cluster.drain_s"] = end.Sub(finish).Seconds()
		L["cluster.slides_merged"] = float64(st.SlidesMerged)
		L["cluster.forced_merges"] = float64(st.ForcedMerges)
		L["cluster.dropped_slides"] = float64(dropped)
		L["ais.scan_s"] = d.scan.Seconds()
		// The coordinator's reports carry each stage's slowest worker.
		pipelineLayers(o, recs, r.systems, nil)
		gcRuntime(L, ms0, ms1, fixes)
		alertLayers(o)
		// The dispatching goroutine's wall: dispatch, then the wait for
		// the coordinator after Finish.
		tr.add("cluster.drain", 0, 0, finish, end)
		o.pipeWall = end.Sub(t0)
		o.selfRows = []selfRow{
			{name: "cluster.dispatch (Router.Dispatch)", count: fixes, self: d.busy - busy0},
			{name: "ais.scan (Scanner.Scan)", count: fixes, self: d.scan},
			{name: "cluster.drain (Finish → coordinator done)", count: 1, self: end.Sub(finish)},
			{name: "unattributed", self: finish.Sub(t0) - (d.busy - busy0) - d.scan},
		}
	}
	return nil
}
