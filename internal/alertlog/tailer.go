package alertlog

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// minPoll/maxPoll bound the backstop poll: after an empty poll the wait
// doubles from minPoll up to maxPoll, and resets on the first delivered
// batch. A directory watch wakes the tailer sooner on every write; the
// backstop catches what the watch misses (event queue overflow, a watch
// that failed to arm, a writer on another host over shared storage).
const (
	minPoll = 5 * time.Millisecond
	maxPoll = 250 * time.Millisecond
)

// TailOptions configures a Tailer.
type TailOptions struct {
	// MaxBatch bounds one poll's delivery (≤ 0: 1024 records).
	MaxBatch int
}

// TailerStats is one replica's tailing accounting.
type TailerStats struct {
	// Applied is the newest sequence delivered to the sink.
	Applied uint64 `json:"applied"`
	// Skipped counts sequences the reader had to jump (pruned or
	// corrupt ranges) — loss surfaced, never hidden.
	Skipped uint64 `json:"skipped"`
	Polls   uint64 `json:"polls"`
	// Wakes counts polls started by a directory-watch notification
	// rather than the backstop timer.
	Wakes   uint64 `json:"wakes"`
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	Errors  uint64 `json:"errors"`
}

// Tailer drives one replica: it polls the log whenever the log
// directory changes (backstopped by a timed poll with backoff), resumes
// from its last applied sequence, and hands each batch to the sink (the
// replica hub's PublishEnvelopes) in order. One goroutine runs Run; the
// stats are safe to read concurrently.
type Tailer struct {
	dir  string
	sink func([]serve.Envelope)
	opt  TailOptions

	// minPoll/maxPoll are the backstop schedule (the package constants;
	// tests stretch them to prove delivery does not wait for a timer).
	minPoll, maxPoll time.Duration

	mu sync.Mutex
	r  *Reader
	st TailerStats
}

// NewTailer returns a tailer resuming after afterSeq (0 = from the
// oldest retained record).
func NewTailer(dir string, afterSeq uint64, sink func([]serve.Envelope), opt TailOptions) *Tailer {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 1024
	}
	return &Tailer{
		dir:     dir,
		sink:    sink,
		opt:     opt,
		minPoll: minPoll,
		maxPoll: maxPoll,
		r:       NewReader(dir, afterSeq),
	}
}

// Poll performs one read-and-deliver step, returning how many records
// it applied. Tests drive it directly for determinism; Run loops it.
func (t *Tailer) Poll() (int, error) {
	t.mu.Lock()
	batch, err := t.r.Next(t.opt.MaxBatch)
	t.st.Polls++
	if err != nil {
		t.st.Errors++
	}
	if len(batch) > 0 {
		t.st.Batches++
		t.st.Records += uint64(len(batch))
		t.st.Applied = batch[len(batch)-1].Seq
	}
	t.st.Skipped = t.r.Skipped()
	t.mu.Unlock()
	if len(batch) > 0 {
		t.sink(batch)
	}
	return len(batch), err
}

// Run tails until ctx is done. It polls again as soon as the log
// directory's watch reports a write, a new segment or a rename, and at
// the latest when the backstop backoff expires. A watch that could not
// be armed (the directory does not exist yet) is retried on every
// backstop tick; the watch is always armed before the poll it guards,
// so a write landing after that poll still wakes the next one.
func (t *Tailer) Run(ctx context.Context) {
	var w *dirWatch
	defer func() { w.close() }()
	backoff := t.minPoll
	for ctx.Err() == nil {
		if w == nil {
			w = watchDir(t.dir)
		}
		n, err := t.Poll()
		if n > 0 && err == nil {
			backoff = t.minPoll
			continue
		}
		select {
		case <-ctx.Done():
		case <-w.wake():
			t.mu.Lock()
			t.st.Wakes++
			t.mu.Unlock()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > t.maxPoll {
			backoff = t.maxPoll
		}
	}
	t.mu.Lock()
	t.r.Close()
	t.mu.Unlock()
}

// Stats snapshots the tailer's accounting.
func (t *Tailer) Stats() TailerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// Applied returns the newest sequence delivered to the sink.
func (t *Tailer) Applied() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st.Applied
}

// Lag returns how many durable records the replica has not applied yet
// (it scans the newest segment; call it from scrape paths, not loops).
func (t *Tailer) Lag() uint64 {
	tail := TailSeq(t.dir)
	applied := t.Applied()
	if tail <= applied {
		return 0
	}
	return tail - applied
}

// RegisterMetrics exposes the replica's tail position on the registry.
// replica labels the series so several replicas can share a scrape.
func (t *Tailer) RegisterMetrics(r *obs.Registry, replica string) {
	labels := obs.Labels{"replica": replica}
	r.GaugeFunc("maritime_alertlog_tail_applied", "Newest log sequence applied by this replica.", labels,
		func() float64 { return float64(t.Applied()) })
	r.GaugeFunc("maritime_alertlog_tail_lag", "Durable records not yet applied by this replica.", labels,
		func() float64 { return float64(t.Lag()) })
	r.CounterFunc("maritime_alertlog_tail_records_total", "Records applied by this replica.", labels,
		func() float64 { return float64(t.Stats().Records) })
	r.CounterFunc("maritime_alertlog_tail_skipped_total", "Sequences this replica had to jump (pruned or corrupt).", labels,
		func() float64 { return float64(t.Stats().Skipped) })
	r.CounterFunc("maritime_alertlog_tail_polls_total", "Log polls by this replica.", labels,
		func() float64 { return float64(t.Stats().Polls) })
	r.CounterFunc("maritime_alertlog_tail_wakes_total", "Log polls started by a directory-watch notification rather than the backstop timer.", labels,
		func() float64 { return float64(t.Stats().Wakes) })
	r.CounterFunc("maritime_alertlog_tail_errors_total", "Failed log polls.", labels,
		func() float64 { return float64(t.Stats().Errors) })
}
