package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/ais"
	"repro/internal/alertlog"
	"repro/internal/analytics"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/maritime"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/supervise"
	"repro/internal/tracker"
)

// liveSpec configures a workload on the cmd/serve wiring: open-loop
// feed → feed.ReconnectingClient → stream.IngestBuffer → Batcher →
// Gateway.Process, with the durable alert log attached to the hub.
type liveSpec struct {
	name    string
	vessels int
	window  time.Duration
	slide   time.Duration
	// speedup maps stream time to wall time on the open-loop schedule.
	// live-paper's 834 puts a slide every 719 ms. After each delivery
	// the replica's tailer polls at 5, 15, 35, 75, 155, 315, 565, 815 ms
	// and then every 250 ms, so each slide's pickup delay moves by
	// 815 − 719 = 96 ms mod 250, a golden-ratio rotation. A run's slides
	// then sample the 0–250 ms delay evenly, whatever the starting phase.
	// At 800 (step 65 ms) they fell on four levels, and the run's p50
	// moved with the phase.
	speedup float64
	// replica: a serving replica tails the log and the SSE client reads
	// it (live-paper). Otherwise the operator client reads the writer.
	replica bool
	// ckptEvery > 0 checkpoints every that many slides under Quiesce.
	ckptEvery int
	setupReps int
}

// The serve binary's defaults the live workloads mirror.
const (
	serveRing       = 1024
	serveWatchdog   = 5 * time.Second
	serveLogSegment = 1 << 20
	serveLogKeep    = 8
	genTick         = 2 * time.Millisecond
)

// The two queue bounds, sized to the workloads' bursts instead of
// cmd/serve's defaults (-ingest-buffer 8192, -sub-queue 256). Both
// queues drop their oldest entry past the bound, and with the
// degradation ladder off nothing else reacts to a backlog.
//   - ingestBuffer holds about two slide intervals of paper-scale
//     fixes (26.5k a slide), so a slide that stalls for 1.7 s at
//     live-paper's rate loses nothing. At 8192 a stall of 220 ms was
//     enough to drop fixes.
//   - subQueue holds more than any one slide's alerts at paper scale
//     (up to 289 steady) and the longest resume operator-reads asks for
//     (the whole log, about 1,700 alerts in a 20 s run). At 256 a
//     subscriber loses part of such a batch before its pump can drain
//     it (SIZING.md, findings 1 and 2).
const (
	ingestBuffer = 1 << 16
	subQueue     = 4096
)

var (
	livePaperSpec = liveSpec{
		name: "live-paper", vessels: 6425, window: time.Hour, slide: 10 * time.Minute,
		speedup: 834, replica: true, setupReps: 2,
	}
	operatorReadsSpec = liveSpec{
		name: "operator-reads", vessels: 1000, window: time.Hour, slide: 10 * time.Minute,
		speedup: 4000, ckptEvery: 6, setupReps: 3,
	}
)

func prepareLivePaper(seed int64, seconds int) (prepared, error) {
	return prepareLive(livePaperSpec, seed, seconds)
}

func prepareOperatorReads(seed int64, seconds int) (prepared, error) {
	return prepareLive(operatorReadsSpec, seed, seconds)
}

// livePrep is a live workload's generated input and oracle.
type livePrep struct {
	spec     liveSpec
	seed     int64
	in       *input
	ref      *refRun
	warmQ    time.Time // last warm-up slide; the schedule's origin
	warmEnd  int       // first line on the schedule
	endLine  int
	measured int // reference alerts after warm-up
}

func (p *livePrep) inputBytes() int { return p.in.offs[p.endLine] }

func prepareLive(spec liveSpec, seed int64, seconds int) (*livePrep, error) {
	// Measured slides: enough to cover the run's seconds on the schedule.
	slideWall := float64(spec.slide) / spec.speedup
	m := int(float64(seconds)*float64(time.Second)/slideWall) + 1
	dur := spec.window + time.Duration(m+1)*spec.slide
	in, err := generate(seed, spec.vessels, dur)
	if err != nil {
		return nil, err
	}
	p := &livePrep{spec: spec, seed: seed, in: in}
	p.warmQ = in.start().Truncate(spec.slide).Add(spec.window)
	// The warm-up includes the first line past warmQ: it closes the
	// last warm-up slide.
	p.warmEnd = in.lineAfter(p.warmQ) + 1
	p.endLine = in.lineAfter(p.warmQ.Add(time.Duration(m) * spec.slide))
	if p.warmEnd >= p.endLine {
		return nil, errors.New("input shorter than its warm-up")
	}
	p.ref, err = reference(in.world, in.reader(p.endLine), spec.window, spec.slide, true)
	if err != nil {
		return nil, err
	}
	for _, s := range p.ref.slides {
		if s.query.After(p.warmQ) {
			p.measured += s.alerts
		}
	}
	return p, nil
}

// stampSink records when the pipeline notified it (core.AlertSink).
// Two of them, one registered before the gateway and one after it,
// bracket the hub publish.
type stampSink struct{ at time.Time }

func (s *stampSink) Consume(core.SlideReport) { s.at = time.Now() }

// tracedLog wraps the alert log the hub publishes through
// (serve.EnvelopeLog), timing every append and stamping each sequence
// with its append return.
type tracedLog struct {
	*alertlog.Log
	rig *liveRig

	// Appends of the slide in flight; read and reset by the pipeline
	// goroutine (the only publisher) after each slide.
	spans [][2]time.Time
}

func (l *tracedLog) Append(envs []serve.Envelope) error {
	t := time.Now()
	err := l.Log.Append(envs)
	end := time.Now()
	l.spans = append(l.spans, [2]time.Time{t, end})
	if len(envs) > 0 {
		l.rig.stamp(l.rig.appendAt, envs, end)
	}
	return err
}

// tracedSource is the stream.FixSource wrapper around the feed client:
// it times Scan and aggregates the time per slide of stream time.
type tracedSource struct {
	src   stream.FixSource
	tr    *tracer
	slide time.Duration

	mu      sync.Mutex
	key     int64 // slide the current aggregate belongs to
	first   time.Time
	last    time.Time
	aggBusy time.Duration
}

func (s *tracedSource) Scan() bool {
	t := time.Now()
	ok := s.src.Scan()
	end := time.Now()
	d := end.Sub(t)
	s.mu.Lock()
	if ok {
		q := s.src.Fix().Time.Truncate(s.slide).Add(s.slide).Unix()
		if q != s.key {
			s.flushLocked()
			s.key, s.first = q, t
		}
		s.last = end
		s.aggBusy += d
	}
	s.mu.Unlock()
	return ok
}

func (s *tracedSource) flushLocked() {
	if s.key != 0 {
		s.tr.addBusy("ingest.scan", s.key, s.first, s.last, s.aggBusy)
	}
	s.aggBusy = 0
}

func (s *tracedSource) Fix() ais.Fix { return s.src.Fix() }
func (s *tracedSource) Err() error   { return s.src.Err() }

// flush records the aggregate in progress.
func (s *tracedSource) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
	s.key = 0
}

// slideRec is what the pipeline goroutine recorded for one slide.
type slideRec struct {
	query    time.Time
	rep      core.SlideReport
	nextDur  time.Duration // Batcher.Next, including the wait for input
	procDur  time.Duration // Gateway.Process
	end      time.Time     // Process returned
	publish  time.Time     // after-sink: the hub publish returned
	depth    int           // ingest buffer backlog after the slide
	wm       int           // recognizer working memory after the slide
	tailLag  uint64
	avessels int
	measured bool
}

// liveRig is one stood-up system: everything cmd/serve builds (and,
// for live-paper, a replica as `serve -replica` builds it).
type liveRig struct {
	p   *livePrep
	tr  *tracer
	dir string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	sys     *core.System
	gw      *serve.Gateway
	alog    *alertlog.Log
	logw    *tracedLog
	mgr     *checkpoint.Manager
	gen     *feedGen
	client  *feed.ReconnectingClient
	buf     *stream.IngestBuffer
	scan    *tracedSource
	httpSrv *http.Server
	gwURL   string

	rhub   *serve.Hub
	tailer *alertlog.Tailer
	rSrv   *http.Server
	rURL   string

	before, after *stampSink

	warmDone chan struct{}
	pipeDone chan struct{}
	// measureFrom is the schedule's start; the pipeline goroutine reads
	// it (under mu) to mark slides as measured.
	mu          sync.Mutex
	measureFrom time.Time
	slides      []slideRec
	ckptSnap    []time.Duration
	ckptSave    []time.Duration
	ckptErrs    int

	// Pipeline progress for the warm-up: the newest processed query.
	progMu   sync.Mutex
	progCond *sync.Cond
	progQ    time.Time
	progEnd  bool

	// Per-sequence wall stamps (unix ns), indexed by seq.
	stampMu  sync.Mutex
	appendAt []int64
	applyAt  []int64
}

// waitSlide blocks until the pipeline has processed query time q.
func (r *liveRig) waitSlide(q time.Time) bool {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	for r.progQ.Before(q) && !r.progEnd {
		r.progCond.Wait()
	}
	return !r.progQ.Before(q)
}

// drained reports whether the client has decoded the first n lines of
// the feed and the ingest buffer is at most half full. It reads the
// client and buffer only once they exist.
func (r *liveRig) drained(n int) bool {
	r.progMu.Lock()
	client, buf := r.client, r.buf
	r.progMu.Unlock()
	if client == nil || buf == nil {
		return n == 0
	}
	return client.Stats().Lines >= n && buf.Pending() <= ingestBuffer/2
}

func (r *liveRig) progress(q time.Time, end bool) {
	r.progMu.Lock()
	if !q.IsZero() {
		r.progQ = q
	}
	r.progEnd = r.progEnd || end
	r.progMu.Unlock()
	r.progCond.Broadcast()
}

func (r *liveRig) stamp(dst []int64, envs []serve.Envelope, at time.Time) {
	r.stampMu.Lock()
	for _, e := range envs {
		if e.Seq < uint64(len(dst)) {
			dst[e.Seq] = at.UnixNano()
		}
	}
	r.stampMu.Unlock()
}

// setup stands up the system and replays the warm-up, returning the
// set-up wall time: construction, log open, listeners up, client
// connected, warm-up window processed (and, with a replica, applied).
func (p *livePrep) setup(tr *tracer) (*liveRig, time.Duration, error) {
	spec := p.spec
	dir, err := os.MkdirTemp(runsDir(), spec.name+"-")
	if err != nil {
		return nil, 0, err
	}
	r := &liveRig{p: p, tr: tr, dir: dir, warmDone: make(chan struct{}), pipeDone: make(chan struct{})}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	n := len(p.ref.keys) + 2
	r.appendAt, r.applyAt = make([]int64, n), make([]int64, n)
	// The load side's listener exists before the clock starts.
	r.progCond = sync.NewCond(&r.progMu)
	r.gen, err = newFeedGen(p.in, p.warmEnd, p.endLine, p.warmQ, spec.speedup, genTick, spec.slide, r.waitSlide, r.drained)
	if err != nil {
		r.close()
		return nil, 0, err
	}

	start := time.Now()
	sysCfg := core.Config{
		Window:          stream.WindowSpec{Range: spec.window, Slide: spec.slide},
		Tracker:         tracker.DefaultParams(),
		Recognition:     maritime.Config{Window: spec.window},
		Processors:      1,
		WatchdogTimeout: serveWatchdog,
		SelfHeal:        true,
		Analytics:       &analytics.Config{EnableCollision: true},
	}
	r.sys = core.NewSystem(sysCfg, p.in.vessels, p.in.areas, p.in.ports)
	sup := supervise.New(r.sys, supervise.Policy{})
	r.sys.OnSlideEnd(func(core.SlideReport) { sup.Poll() })
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	r.sys.RegisterMetrics(reg)
	if tr != nil {
		r.before = &stampSink{}
		r.sys.AddAlertSink(r.before)
	}
	r.alog, err = alertlog.Open(filepath.Join(dir, "alerts"), alertlog.Options{SegmentBytes: serveLogSegment, KeepSegments: serveLogKeep})
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.alog.RegisterMetrics(reg)
	r.gw = serve.New(r.sys, serve.Options{RingSize: serveRing, SubscriberQueue: subQueue, Metrics: reg})
	// The after-sink stamps the end of the hub publish: the moment an
	// alert is visible to the writer's subscribers.
	r.after = &stampSink{}
	r.sys.AddAlertSink(r.after)
	var elog serve.EnvelopeLog = r.alog
	if tr != nil {
		r.logw = &tracedLog{Log: r.alog, rig: r}
		elog = r.logw
	}
	r.gw.Hub().AttachLog(elog)
	if spec.ckptEvery > 0 {
		r.mgr, err = checkpoint.NewManager(checkpoint.Options{Dir: filepath.Join(dir, "ckpt")})
		if err != nil {
			r.close()
			return nil, 0, err
		}
		r.mgr.RegisterMetrics(reg)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		sup.Run(r.ctx, time.Second)
	}()
	if r.httpSrv, r.gwURL, err = r.listen(r.gw.Handler()); err != nil {
		r.close()
		return nil, 0, err
	}
	if spec.replica {
		if err := r.startReplica(); err != nil {
			r.close()
			return nil, 0, err
		}
	}

	client, err := feed.DialReconnecting(r.gen.addr(), feed.DefaultRetryPolicy())
	if err != nil {
		r.close()
		return nil, 0, err
	}
	r.progMu.Lock()
	r.client = client
	r.progMu.Unlock()
	r.client.RegisterMetrics(reg)
	var src stream.FixSource = r.client
	if tr != nil {
		r.scan = &tracedSource{src: r.client, tr: tr, slide: spec.slide}
		src = r.scan
	}
	buf := stream.NewIngestBuffer(src, ingestBuffer)
	r.progMu.Lock()
	r.buf = buf
	r.progMu.Unlock()
	r.buf.RegisterMetrics(reg)
	r.sys.AddHealthSource(core.LiveHealthSource(r.client, r.buf))

	go r.pipeline()
	select {
	case <-r.warmDone:
	case <-r.pipeDone:
		r.close()
		return nil, 0, errors.New("feed ended during warm-up")
	case <-time.After(120 * time.Second):
		r.close()
		return nil, 0, errors.New("warm-up did not finish in 120 s")
	}
	if spec.replica {
		// The replica has applied the whole warm-up before the client
		// connects; the client resumes after it.
		head := r.alog.LastSeq()
		for r.tailer.Applied() < head {
			if time.Since(start) > 150*time.Second {
				r.close()
				return nil, 0, errors.New("replica did not catch up with the warm-up")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return r, time.Since(start), nil
}

// listen serves h on a fresh loopback listener.
func (r *liveRig) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// startReplica builds what `serve -replica` builds: a hub fed by a log
// tailer, serving the same SSE protocol.
func (r *liveRig) startReplica() error {
	logDir := filepath.Join(r.dir, "alerts")
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	r.rhub = serve.NewHub(serveRing)
	r.rhub.AttachReplay(alertlog.OpenReplay(logDir))
	r.rhub.RegisterMetrics(reg)
	sink := r.rhub.PublishEnvelopes
	if r.tr != nil {
		sink = func(envs []serve.Envelope) {
			t := time.Now()
			r.stamp(r.applyAt, envs, t)
			r.stampMu.Lock()
			from := r.appendAt[envs[0].Seq]
			r.stampMu.Unlock()
			r.rhub.PublishEnvelopes(envs)
			if from != 0 {
				r.tr.add("alertlog.tail", envs[0].Slide.Unix(), 0, time.Unix(0, from), t)
			}
		}
	}
	r.tailer = alertlog.NewTailer(logDir, 0, sink, alertlog.TailOptions{})
	r.tailer.RegisterMetrics(reg, "r1")
	rp := serve.NewReplica(r.rhub, serve.ReplicaOptions{Name: "r1", SubscriberQueue: subQueue, Metrics: reg})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.tailer.Run(r.ctx)
	}()
	var err error
	r.rSrv, r.rURL, err = r.listen(rp.Handler())
	return err
}

// pipeline is cmd/serve's pipeline loop: one goroutine batches slides
// and runs them through the gateway, checkpointing every ckptEvery
// slides under Quiesce.
func (r *liveRig) pipeline() {
	defer close(r.pipeDone)
	defer r.progress(time.Time{}, true)
	spec := r.p.spec
	batcher := stream.NewBatcher(r.buf, spec.slide)
	var cur feed.Cursor
	slides := 0
	warm := false
	for {
		t0 := time.Now()
		b, ok := batcher.Next()
		t1 := time.Now()
		if !ok || r.ctx.Err() != nil {
			break
		}
		rep := r.gw.Process(b)
		t2 := time.Now()
		for _, f := range b.Fixes {
			cur.Note(f)
		}
		slides++
		r.mu.Lock()
		from := r.measureFrom
		r.mu.Unlock()
		rec := slideRec{query: rep.Query, rep: rep, nextDur: t1.Sub(t0), procDur: t2.Sub(t1), end: t2,
			publish: r.after.at, measured: !from.IsZero() && rep.Query.After(r.p.warmQ)}
		if r.tr != nil && rec.measured {
			r.traceSlide(&rec, t0, t1, t2, from)
		}
		if r.logw != nil {
			r.logw.spans = r.logw.spans[:0]
		}
		if r.mgr != nil && slides%spec.ckptEvery == 0 {
			ck := r.saveCheckpoint(rep.Query, cur, slides, rec.measured)
			if r.tr != nil && rec.measured {
				q := rep.Query.Unix()
				root := r.tr.add("checkpoint", q, 0, ck.start, ck.end)
				qs := r.tr.add("checkpoint.quiesce", q, root, ck.start, ck.quiesced)
				r.tr.add("checkpoint.snapshot", q, qs, ck.snapStart, ck.snapEnd)
				r.tr.add("checkpoint.save", q, root, ck.quiesced, ck.end)
			}
		}
		if r.tr != nil && rec.measured && r.sys.Analytics() != nil {
			rec.avessels = int(r.sys.Analytics().Stats().Vessels)
		}
		r.mu.Lock()
		r.slides = append(r.slides, rec)
		r.mu.Unlock()
		r.progress(rep.Query, false)
		if !warm && !rep.Query.Before(r.p.warmQ) {
			warm = true
			close(r.warmDone)
		}
	}
}

// traceSlide records the slide's spans: stream.next, then core.process
// with the SlideReport stage timings as children (laid end to end from
// the call's start; the report carries durations, not instants) and
// serve.publish — bracketed by the two sinks — with its log appends.
func (r *liveRig) traceSlide(rec *slideRec, t0, t1, t2, from time.Time) {
	q := rec.query.Unix()
	if t0.Before(from) {
		t0 = from
	}
	r.tr.add("stream.next", q, 0, t0, t1)
	proc := r.tr.add("core.process", q, 0, t1, t2)
	traceStages(r.tr, proc, q, t1, rec.rep.Timings)
	pub := r.tr.add("serve.publish", q, proc, r.before.at, r.after.at)
	for _, s := range r.logw.spans {
		r.tr.add("alertlog.append", q, pub, s[0], s[1])
	}
	rec.depth = r.buf.Pending()
	if rc := r.sys.Recognizer(); rc != nil {
		rec.wm = rc.Engine().WorkingMemorySize()
	}
	if r.tailer != nil {
		if last, applied := r.alog.LastSeq(), r.tailer.Applied(); last > applied {
			rec.tailLag = last - applied
		}
	}
}

// ckptTimes are the instants of one checkpoint.
type ckptTimes struct{ start, snapStart, snapEnd, quiesced, end time.Time }

// saveCheckpoint is cmd/serve's saveCkpt: pipeline and hub captured
// together under Quiesce, written outside it.
func (r *liveRig) saveCheckpoint(q time.Time, cur feed.Cursor, slides int, measured bool) ckptTimes {
	var st *checkpoint.State
	var ct ckptTimes
	ct.start = time.Now()
	r.gw.Quiesce(func() {
		ct.snapStart = time.Now()
		snap, err := r.sys.Snapshot()
		ct.snapEnd = time.Now()
		if err != nil {
			return
		}
		hub := r.gw.Hub().Snapshot()
		st = &checkpoint.State{Query: q, System: snap, Cursor: cur.Clone(), Hub: &hub, Slides: slides}
	})
	ct.quiesced = time.Now()
	var err error
	if st != nil {
		err = r.mgr.Save(st)
	}
	ct.end = time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if st == nil || err != nil {
		r.ckptErrs++
	}
	if measured {
		r.ckptSnap = append(r.ckptSnap, ct.snapEnd.Sub(ct.snapStart))
		r.ckptSave = append(r.ckptSave, ct.end.Sub(ct.quiesced))
	}
	return ct
}

// close tears the rig down and waits for every goroutine it started.
func (r *liveRig) close() {
	// Cancel first: the pipeline loop then discards the partial batch
	// the closing client leaves behind instead of processing it.
	r.cancel()
	if r.client != nil {
		r.client.Close()
	}
	if r.buf != nil {
		r.buf.Close()
	}
	if r.gen != nil {
		r.gen.stop()
	}
	if r.client != nil {
		<-r.pipeDone
	}
	if r.rhub != nil {
		r.rhub.Close()
	}
	if r.gw != nil {
		r.gw.Hub().Close()
	}
	for _, s := range []*http.Server{r.httpSrv, r.rSrv} {
		if s != nil {
			s.Close()
		}
	}
	r.wg.Wait()
	if r.alog != nil {
		r.alog.Close()
	}
	if r.sys != nil {
		r.sys.Close()
	}
	os.RemoveAll(r.dir)
}

// runsDir holds the per-run state directories (alert logs, checkpoints).
func runsDir() string {
	d := filepath.Join(buildDir(), "runs")
	os.MkdirAll(d, 0o755)
	return d
}

// memStats reads the runtime's GC counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
