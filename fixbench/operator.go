package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// opClient is the operator-reads closed-loop client: one operator
// refreshing a view of the writer gateway back to back — a round of
// four snapshot GETs (/vessels, /vessels/{mmsi}, /trips?mmsi=,
// /alerts?n=, vessel and n seeded) — with an SSE resume with
// Last-Event-ID in place of every tenth round.
type opClient struct {
	r    *liveRig
	rng  *rand.Rand
	http *http.Client

	round, query, resume Sample
	// windows[i] holds the rounds started in the i-th second of the loop.
	windows         []Sample
	requests        int64
	failed          int64
	notFound        int64
	resumeBad       int64
	resumeTruncated int64
}

func newOperator(r *liveRig, seed int64) *opClient {
	return &opClient{r: r, rng: rand.New(rand.NewSource(seed)), http: &http.Client{Timeout: 30 * time.Second}}
}

// loop runs rounds back to back until stop is closed.
func (c *opClient) loop(stop <-chan struct{}) {
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if i%10 == 9 {
			c.doResume(i/10%2 == 1)
			continue
		}
		vs := c.r.p.in.vessels
		mmsi := vs[c.rng.Intn(len(vs))].MMSI
		t := time.Now()
		ok := c.get("/vessels") &&
			c.get(fmt.Sprintf("/vessels/%d", mmsi)) &&
			c.get(fmt.Sprintf("/trips?mmsi=%d", mmsi)) &&
			c.get(fmt.Sprintf("/alerts?n=%d", 1+c.rng.Intn(100)))
		if ok {
			d := time.Since(t)
			c.round.AddDuration(d)
			w := int(t.Sub(start) / time.Second)
			for len(c.windows) <= w {
				c.windows = append(c.windows, Sample{})
			}
			c.windows[w].AddDuration(d)
		}
	}
}

// get issues one snapshot GET and times send → last byte.
func (c *opClient) get(path string) bool {
	c.requests++
	t := time.Now()
	resp, err := c.http.Get(c.r.gwURL + path)
	if err != nil {
		c.failed++
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	switch {
	case err != nil:
		c.failed++
		return false
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusNotFound && strings.HasPrefix(path, "/vessels/"):
		// A vessel not in the tracker right now: a correct answer.
		c.notFound++
	default:
		c.failed++
		return false
	}
	c.query.AddDuration(lat)
	return true
}

// doResume reconnects with Last-Event-ID and reads until every
// envelope published before the connect has arrived. Half the resumes
// fall inside the writer's 1024-entry ring (1 to 1024 envelopes back),
// half before it (further back, or from the first record while the
// ring still holds the whole log). With the log attached, the hub
// serves both from alertlog replay.
func (c *opClient) doResume(deep bool) {
	head := c.r.gw.Hub().Totals().Published
	if head < 2 {
		return
	}
	c.requests++
	// Last-Event-ID 0 would mean a fresh session, not a replay.
	back := uint64(1 + c.rng.Intn(serveRing))
	if deep {
		back = serveRing + 1 + uint64(c.rng.Int63n(int64(max(head, serveRing+1)-serveRing)))
	}
	back = min(back, head-1)
	after := head - back
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []serve.Envelope
	var doneAt time.Time
	t := time.Now()
	err := serve.StreamAlerts(ctx, c.r.gwURL+"/events", after, func(e serve.Envelope) {
		if e.Seq <= head || e.Marker != "" {
			got = append(got, e)
		}
		if e.Seq >= head && doneAt.IsZero() {
			doneAt = time.Now()
			cancel()
		}
	})
	if err != nil || doneAt.IsZero() {
		c.failed++
		return
	}
	c.resume.AddDuration(doneAt.Sub(t))
	// The replay must be exactly the log range (after, head]. The hub
	// replays at most queue−1 envelopes and announces the prefix it
	// skipped with a replay-truncated marker: such a replay is counted
	// as truncated; any other difference (an unannounced gap, a
	// duplicate, a wrong alert) as mismatched. Both are failures.
	keys := c.r.p.ref.keys
	next := after + 1
	exact, announced := true, true
	for _, e := range got {
		if e.Marker != "" {
			exact = false
			if e.Marker != serve.MarkerReplayTruncated || e.Seq != next+e.Missing-1 {
				announced = false
			}
		} else if e.Seq != next || e.Seq > uint64(len(keys)) || alertKey(e.Slide, e.Alert) != keys[e.Seq-1] {
			exact, announced = false, false
		}
		next = e.Seq + 1
	}
	if next != head+1 {
		exact, announced = false, false
	}
	switch {
	case exact:
	case announced:
		c.resumeTruncated++
	default:
		c.resumeBad++
		seqs := make([]string, len(got))
		for i, e := range got {
			seqs[i] = fmt.Sprintf("%d%s", e.Seq, e.Marker)
		}
		fmt.Fprintf(os.Stderr, "resume after %d to head %d received %v\n", after, head, seqs)
	}
}

// finish folds the client's results into the outcome.
func (c *opClient) finish(o *outcome) {
	o.round, o.query, o.resume = c.round, c.query, c.resume
	o.lat = &o.round
	// The last window is cut short by the end of the stream; it counts
	// only when it has at least half the rounds of a whole one.
	o.latWindows = c.windows
	if n := len(c.windows); n > 1 && 2*c.windows[n-1].Len() < c.windows[n-2].Len() {
		o.latWindows = c.windows[:n-1]
	}
	o.attempted += c.requests
	o.fail("request_failed", c.failed)
	o.fail("resume_mismatch", c.resumeBad)
	o.fail("resume_truncated", c.resumeTruncated)
}
