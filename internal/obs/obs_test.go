package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape renders the registry to a string.
func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "Total events.", nil)
	c.Inc()
	c.Add(4)
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP events_total Total events.",
		"# TYPE events_total counter",
		"events_total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", Labels{"k": "v"})
	b := r.Counter("x_total", "", Labels{"k": "v"})
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	c := r.Counter("x_total", "", Labels{"k": "w"})
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("aliased counter did not observe the increment")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "", nil)
}

func TestLabelsSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	r.Counter("l_total", "", Labels{"z": "1", "a": `qu"ote\back`, "m": "line\nbreak"}).Inc()
	out := scrape(t, r)
	want := `l_total{a="qu\"ote\\back",m="line\nbreak",z="1"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("labels not canonical:\n%s\nwant %s", out, want)
	}
}

func TestGaugeSetAddAndFloats(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "", nil)
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	if out := scrape(t, r); !strings.Contains(out, "depth 1.5") {
		t.Fatalf("gauge exposition wrong:\n%s", out)
	}
	g.Set(3)
	if out := scrape(t, r); !strings.Contains(out, "depth 3\n") {
		t.Fatalf("integral gauge must render without decimals:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", Labels{"stage": "x"}, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Fatalf("Sum = %v, want 5.565", h.Sum())
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="x",le="0.01"} 2`, // 0.005 and the exact-boundary 0.01
		`lat_seconds_bucket{stage="x",le="0.1"} 3`,
		`lat_seconds_bucket{stage="x",le="1"} 4`,
		`lat_seconds_bucket{stage="x",le="+Inf"} 5`,
		`lat_seconds_count{stage="x"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestDefBucketsResolveMicroseconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "", nil, nil)
	h.ObserveDuration(2 * time.Microsecond)
	out := scrape(t, r)
	for _, want := range []string{
		`stage_seconds_bucket{le="1e-06"} 0`,
		`stage_seconds_bucket{le="2.5e-06"} 1`,
		`stage_seconds_bucket{le="0.0001"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", nil, []float64{0.05, 1})
	h.ObserveDuration(100 * time.Millisecond)
	out := scrape(t, r)
	if !strings.Contains(out, `d_seconds_bucket{le="0.05"} 0`) ||
		!strings.Contains(out, `d_seconds_bucket{le="1"} 1`) {
		t.Fatalf("duration bucketed wrong:\n%s", out)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 7
	r.CounterFunc("pulled_total", "", nil, func() float64 { return float64(n) })
	r.GaugeFunc("pulled_gauge", "", Labels{"src": "test"}, func() float64 { return 2.25 })
	out := scrape(t, r)
	if !strings.Contains(out, "pulled_total 7") {
		t.Errorf("counter func not sampled:\n%s", out)
	}
	if !strings.Contains(out, `pulled_gauge{src="test"} 2.25`) {
		t.Errorf("gauge func not sampled:\n%s", out)
	}
	n = 9
	if out := scrape(t, r); !strings.Contains(out, "pulled_total 9") {
		t.Errorf("counter func not re-sampled:\n%s", out)
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "", nil)
	r.Counter("aaa_total", "", nil)
	out := scrape(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

// TestConcurrentUse hammers registration, updates and scrapes from many
// goroutines; run under -race this is the registry's safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("con_total", "", Labels{"w": string(rune('a' + i%3))}).Inc()
				r.Histogram("con_seconds", "", nil, nil).Observe(float64(j) / 1000)
				r.Gauge("con_gauge", "", nil).Set(float64(j))
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				_ = r.WriteText(&b)
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, w := range []string{"a", "b", "c"} {
		total += r.Counter("con_total", "", Labels{"w": w}).Value()
	}
	if total != 1600 {
		t.Fatalf("counter total = %d, want 1600", total)
	}
	if got := r.Histogram("con_seconds", "", nil, nil).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "", nil).Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	buf := make([]byte, 1<<12)
	n, _ := res.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "h_total 3") {
		t.Fatalf("handler body missing metric:\n%s", buf[:n])
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	out := scrape(t, r)
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime scrape missing %s:\n%s", want, out)
		}
	}
}

func TestDebugMuxRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("dm_total", "", nil).Inc()
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("%s returned %d", path, res.StatusCode)
		}
	}
}
