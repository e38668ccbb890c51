package collision

import (
	"math"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
)

var t0 = time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC)

// feed gives the detector two fixes (one minute apart) establishing a
// course for the vessel: at now it sits at pos moving on heading at
// speedKn.
func feed(d *Detector, mmsi uint32, pos geo.Point, heading, speedKn float64) {
	step := geo.KnotsToMetersPerSecond(speedKn) * 60
	before := geo.Destination(pos, heading+180, step)
	d.Observe(ais.Fix{MMSI: mmsi, Pos: before, Time: t0.Add(-time.Minute)})
	d.Observe(ais.Fix{MMSI: mmsi, Pos: pos, Time: t0})
}

func TestHeadOnEncounterDetected(t *testing.T) {
	d := New(Params{})
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Two 12-knot vessels 8 km apart, sailing straight at each other:
	// closing speed 24 kn ≈ 12.35 m/s → TCPA ≈ 648 s, DCPA ≈ 0.
	feed(d, 1, geo.Destination(mid, 270, 4000), 90, 12)
	feed(d, 2, geo.Destination(mid, 90, 4000), 270, 12)
	enc := d.Encounters(t0)
	if len(enc) != 1 {
		t.Fatalf("encounters = %v", enc)
	}
	e := enc[0]
	if e.A != 1 || e.B != 2 {
		t.Errorf("pair = %d,%d", e.A, e.B)
	}
	wantT := 8000 / geo.KnotsToMetersPerSecond(24)
	if math.Abs(e.TCPA.Seconds()-wantT) > 30 {
		t.Errorf("TCPA = %v, want ~%.0fs", e.TCPA, wantT)
	}
	if e.DCPA > 100 {
		t.Errorf("DCPA = %.0f m, want ~0", e.DCPA)
	}
	if dist := geo.Haversine(e.Where, mid); dist > 500 {
		t.Errorf("CPA position %.0f m from the geometric midpoint", dist)
	}
}

func TestCrossingCoursesRespectThreshold(t *testing.T) {
	d := New(Params{DistanceMeters: 300})
	cross := geo.Point{Lon: 24.5, Lat: 37.5}
	// Vessel 1 eastbound through the crossing; vessel 2 northbound,
	// timed to pass 1 km behind it: DCPA ≈ 700 m > 300 m → no alarm.
	feed(d, 1, geo.Destination(cross, 270, 3000), 90, 12)
	feed(d, 2, geo.Destination(cross, 180, 4000), 0, 12)
	if enc := d.Encounters(t0); len(enc) != 0 {
		t.Errorf("crossing with wide CPA alarmed: %v", enc)
	}
	// Re-time vessel 2 to arrive simultaneously: alarm.
	d2 := New(Params{DistanceMeters: 300})
	feed(d2, 1, geo.Destination(cross, 270, 3000), 90, 12)
	feed(d2, 2, geo.Destination(cross, 180, 3000), 0, 12)
	if enc := d2.Encounters(t0); len(enc) != 1 {
		t.Errorf("simultaneous crossing not alarmed: %v", enc)
	}
}

func TestDivergingVesselsIgnored(t *testing.T) {
	d := New(Params{})
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Back to back, sailing apart — but currently only 400 m from each
	// other (inside the threshold at TCPA=0).
	feed(d, 1, geo.Destination(mid, 270, 3000), 270, 12)
	feed(d, 2, geo.Destination(mid, 90, 3000), 90, 12)
	if enc := d.Encounters(t0); len(enc) != 0 {
		t.Errorf("diverging distant vessels alarmed: %v", enc)
	}
}

func TestParallelCoursesOutsideThresholdIgnored(t *testing.T) {
	d := New(Params{DistanceMeters: 500})
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	feed(d, 1, base, 90, 15)
	feed(d, 2, geo.Destination(base, 0, 2000), 90, 15) // 2 km abeam
	if enc := d.Encounters(t0); len(enc) != 0 {
		t.Errorf("parallel courses 2 km apart alarmed: %v", enc)
	}
}

func TestHorizonBoundsLookahead(t *testing.T) {
	d := New(Params{Horizon: 5 * time.Minute})
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	// Head-on but 20 km apart at 12 kn each: TCPA ≈ 27 min > 5 min.
	feed(d, 1, geo.Destination(mid, 270, 10000), 90, 12)
	feed(d, 2, geo.Destination(mid, 90, 10000), 270, 12)
	if enc := d.Encounters(t0); len(enc) != 0 {
		t.Errorf("encounter beyond the horizon alarmed: %v", enc)
	}
}

func TestStaleVesselsExcluded(t *testing.T) {
	d := New(Params{Stale: 10 * time.Minute})
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	feed(d, 1, geo.Destination(mid, 270, 4000), 90, 12)
	feed(d, 2, geo.Destination(mid, 90, 4000), 270, 12)
	// Query half an hour later: both tracks are stale.
	if enc := d.Encounters(t0.Add(30 * time.Minute)); len(enc) != 0 {
		t.Errorf("stale tracks alarmed: %v", enc)
	}
}

func TestGridPruningMatchesNaive(t *testing.T) {
	// A converging pair embedded in a dispersed fleet: pruning must not
	// lose it, and far-apart vessels must not appear.
	d := New(Params{})
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	feed(d, 1, geo.Destination(mid, 270, 4000), 90, 12)
	feed(d, 2, geo.Destination(mid, 90, 4000), 270, 12)
	for i := uint32(0); i < 60; i++ {
		pos := geo.Point{
			Lon: 20 + float64(i%10)*0.8,
			Lat: 34 + float64(i/10)*1.1,
		}
		feed(d, 100+i, pos, float64(i*7%360), 10)
	}
	enc := d.Encounters(t0)
	found := false
	for _, e := range enc {
		if e.A == 1 && e.B == 2 {
			found = true
		}
		if e.DCPA > d.params.DistanceMeters {
			t.Errorf("encounter beyond threshold: %+v", e)
		}
	}
	if !found {
		t.Error("grid pruning lost the converging pair")
	}
}

// gridFleet returns a detector holding n vessels on a regular grid
// over the Aegean (45 columns 0.2° apart, rows 0.15° apart) on varied
// courses at 8–19 knots: dense enough that every vessel has dozens of
// candidates within reach.
func gridFleet(n int) *Detector {
	d := New(Params{})
	for i := uint32(0); i < uint32(n); i++ {
		pos := geo.Point{
			Lon: 20 + float64(i%45)*0.2,
			Lat: 34 + float64(i/45)*0.15,
		}
		feed(d, i, pos, float64(i*13%360), 8+float64(i%12))
	}
	return d
}

func BenchmarkEncounters(b *testing.B) {
	d := gridFleet(2000)
	d.Encounters(t0) // warm the query scratch: measure the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encounters(t0)
	}
}

// Allocation gate: a warm Encounters query allocates a handful of
// times per call (the MMSI order, the result, the sort), never once
// per candidate pair. Deciding pair ownership by rescanning the index
// cost one allocation per pair (about 418k per call on this fleet).
func TestEncountersWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	d := gridFleet(2000)
	// Fifty head-on pairs scattered through the grid, so the result is
	// not empty.
	for k := uint32(0); k < 50; k++ {
		mid := geo.Point{Lon: 20.1 + float64(k%10)*0.8, Lat: 34.07 + float64(k/10)*1.2}
		feed(d, 10_000+2*k, geo.Destination(mid, 270, 4000), 90, 12)
		feed(d, 10_001+2*k, geo.Destination(mid, 90, 4000), 270, 12)
	}
	if n := len(d.Encounters(t0)); n < 50 {
		t.Fatalf("%d encounters, want at least the 50 scripted pairs", n)
	}
	before := d.Stats().CPAPairs
	allocs := testing.AllocsPerRun(10, func() { d.Encounters(t0) })
	if pairs := (d.Stats().CPAPairs - before) / 11; pairs < 10_000 {
		t.Fatalf("only %d CPA pairs per query; the fleet is too sparse for the gate", pairs)
	}
	const budget = 16
	if allocs > budget {
		t.Errorf("warm Encounters over 2000 vessels: %.0f allocs/call, budget %d", allocs, budget)
	}
	t.Logf("%.0f allocs per warm Encounters call", allocs)
}

func TestMooredClusterDoesNotAlarm(t *testing.T) {
	// Five vessels drifting within 200 m of each other at anchor: GPS
	// drift gives them sub-knot velocities in random directions. A quay
	// full of neighbors is not collision traffic.
	d := New(Params{})
	quay := geo.Point{Lon: 23.63, Lat: 37.94}
	for i := uint32(0); i < 5; i++ {
		pos := geo.Destination(quay, float64(i)*72, 120)
		feed(d, 10+i, pos, float64(i*50%360), 0.4)
	}
	if enc := d.Encounters(t0); len(enc) != 0 {
		t.Errorf("anchored cluster alarmed: %v", enc)
	}
}

func TestMovingVesselTowardMooredOneAlarms(t *testing.T) {
	// One vessel bearing down on an anchored one: the moored vessel's
	// low speed must not suppress a genuine risk.
	d := New(Params{})
	anchored := geo.Point{Lon: 24.5, Lat: 37.5}
	feed(d, 1, anchored, 10, 0.2)
	feed(d, 2, geo.Destination(anchored, 270, 3000), 90, 14)
	enc := d.Encounters(t0)
	if len(enc) != 1 {
		t.Fatalf("encounters = %v, want the bearing-down pair", enc)
	}
	if enc[0].DCPA > 300 {
		t.Errorf("DCPA = %.0f m", enc[0].DCPA)
	}
}
