package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/ais"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/maritime"
	"repro/internal/stream"
	"repro/internal/tracker"
)

// alertKey is an alert's canonical byte form for the oracle: the query
// time of the slide that recognized it and the alert's JSON encoding
// (the same encoding the alert log and the SSE stream carry).
func alertKey(slide time.Time, a maritime.Alert) string {
	b, err := json.Marshal(a)
	if err != nil {
		// maritime.Alert holds only strings, integers and a time.Time;
		// encoding cannot fail.
		panic(err)
	}
	return fmt.Sprintf("%d|%s", slide.UnixNano(), b)
}

// refSlide is one slide of the reference run.
type refSlide struct {
	query  time.Time
	alerts int
}

// refRun is the oracle for one workload and seed: the alerts of a plain
// single-process core.System — one tracker shard, no watchdog, no
// self-heal, no degradation ladder — over the same wire bytes the
// system under test receives.
type refRun struct {
	keys   []string // in publication order; keys[i] is the alert of seq i+1
	slides []refSlide
}

// reference computes the oracle over the wire lines read from r.
func reference(w world, r io.Reader, window, slide time.Duration, pairwise bool) (*refRun, error) {
	cfg := core.Config{
		Window:        stream.WindowSpec{Range: window, Slide: slide},
		Tracker:       tracker.DefaultParams(),
		Recognition:   maritime.Config{Window: window},
		TrackerShards: 1,
	}
	if pairwise {
		cfg.Analytics = &analytics.Config{EnableCollision: true}
	}
	sys := core.NewSystem(cfg, w.vessels, w.areas, w.ports)
	defer sys.Close()
	sc := ais.NewScanner(r)
	b := stream.NewBatcher(sc, slide)
	ref := &refRun{}
	for {
		batch, ok := b.Next()
		if !ok {
			break
		}
		rep := sys.ProcessBatch(batch)
		ref.keys = appendKeys(ref.keys, rep)
		ref.slides = append(ref.slides, refSlide{query: rep.Query, alerts: len(rep.Alerts)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reference: scanning input: %w", err)
	}
	if st := sc.Stats(); st.Dropped() > 0 {
		return nil, fmt.Errorf("reference: generated input lost %d lines in decoding", st.Dropped())
	}
	return ref, nil
}

// wireForm re-encodes the stream the way cluster.Router writes it to
// its workers (ais.WriteFixCSV). The router's re-encoding of a fix read
// from it reproduces the fix bit for bit.
func wireForm(in *input) ([]byte, error) {
	var buf bytes.Buffer
	sc := ais.NewScanner(in.reader(len(in.times)))
	for sc.Scan() {
		if err := ais.WriteFixCSV(&buf, sc.Fix()); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), sc.Err()
}

// appendKeys appends the slide's alerts in oracle form.
func appendKeys(keys []string, rep core.SlideReport) []string {
	for _, a := range rep.Alerts {
		keys = append(keys, alertKey(rep.Query, a))
	}
	return keys
}

// compareKeys checks got against the reference alert for alert, in
// order: byte-identical or counted as mismatched/missing/extra.
func compareKeys(o *outcome, got, want []string) {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			if o.failures["alert_mismatch"] == 0 {
				fmt.Fprintf(os.Stderr, "alert %d differs from the reference:\n  got  %s\n  want %s\n", i, got[i], want[i])
			}
			o.fail("alert_mismatch", 1)
		}
	}
	o.fail("alert_missing", int64(len(want)-n))
	o.fail("alert_extra", int64(len(got)-n))
}
