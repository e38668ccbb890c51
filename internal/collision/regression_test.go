package collision

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

// track builds a straight-line fix sequence for one vessel: n fixes
// every interval, starting at start from pos on heading at speedKn.
func track(mmsi uint32, pos geo.Point, heading, speedKn float64, start time.Time, interval time.Duration, n int) []ais.Fix {
	fixes := make([]ais.Fix, 0, n)
	step := geo.KnotsToMetersPerSecond(speedKn) * interval.Seconds()
	for i := 0; i < n; i++ {
		fixes = append(fixes, ais.Fix{
			MMSI: mmsi,
			Pos:  geo.Destination(pos, heading, step*float64(i)),
			Time: start.Add(time.Duration(i) * interval),
		})
	}
	return fixes
}

// Regression for the state-overwrite bug: Observe used to apply every
// fix unconditionally, so a late (out-of-order) arrival rewound the
// vessel to a stale position and poisoned the next velocity estimate.
// Perturb a clean track with the transport-delay simulator and check
// the detector ends on the newest fix, not the last-arriving one.
func TestObserveRejectsLateFixes(t *testing.T) {
	start := t0.Add(-20 * time.Minute)
	fixes := track(7, geo.Point{Lon: 24.5, Lat: 37.5}, 90, 12, start, 30*time.Second, 40)
	perturbed := stream.Delayer{MaxDelay: 2 * time.Minute, Fraction: 0.5, Seed: 11}.Apply(fixes)
	if reflect.DeepEqual(perturbed, fixes) {
		t.Fatal("delayer did not perturb the arrival order; pick another seed")
	}

	d := New(Params{})
	wantRejected := 0
	applied := time.Time{}
	for _, f := range perturbed {
		if !applied.IsZero() && !f.Time.After(applied) {
			wantRejected++
		} else {
			applied = f.Time
		}
		d.Observe(f)
	}
	if wantRejected == 0 {
		t.Fatal("perturbation produced no late arrivals; pick another seed")
	}

	k := d.vessels[7]
	newest := fixes[len(fixes)-1]
	if !k.at.Equal(newest.Time) || k.pos != newest.Pos {
		t.Errorf("state = %v @ %v, want the newest fix %v @ %v",
			k.pos, k.at, newest.Pos, newest.Time)
	}
	if got := d.Stats().LateRejected; got != wantRejected {
		t.Errorf("LateRejected = %d, want %d", got, wantRejected)
	}
	// The velocity estimate must come from in-order neighbors, so the
	// recovered speed stays near the true 12 knots instead of the wild
	// values a rewound position pair would produce.
	if k.vel.SpeedKnots < 10 || k.vel.SpeedKnots > 14 {
		t.Errorf("recovered speed = %.1f kn, want ~12", k.vel.SpeedKnots)
	}
}

// Regression for the unbounded-memory bug: vessels that went silent
// were skipped by queries but never removed, so a long-running
// detector accumulated every vessel ever heard. Under churn (new
// vessels appearing as old ones go silent) the population must
// stabilize and the evictions must be counted.
func TestVesselCountStabilizesUnderChurn(t *testing.T) {
	d := New(Params{Stale: 10 * time.Minute})
	base := geo.Point{Lon: 24.0, Lat: 37.0}
	// 200 generations, one new vessel per minute; with a 10-minute
	// staleness bound only ~10 vessels are ever live at once.
	for i := 0; i < 200; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		pos := geo.Destination(base, float64(i*37%360), 5000+float64(i%7)*3000)
		d.Observe(ais.Fix{MMSI: uint32(1000 + i), Pos: geo.Destination(pos, 180, 100), Time: now.Add(-30 * time.Second)})
		d.Observe(ais.Fix{MMSI: uint32(1000 + i), Pos: pos, Time: now})
		d.Encounters(now)
		if n := d.VesselCount(); n > 15 {
			t.Fatalf("generation %d: population %d keeps growing despite churn", i, n)
		}
	}
	st := d.Stats()
	if st.Evicted == 0 {
		t.Error("no vessels were evicted under churn")
	}
	if st.Vessels+st.Evicted != 200 {
		t.Errorf("vessels(%d) + evicted(%d) = %d, want 200 (every vessel accounted for)",
			st.Vessels, st.Evicted, st.Vessels+st.Evicted)
	}
}

// Property: Encounters is a pure function of the accepted observation
// history — interleaving the per-vessel streams differently across
// vessels (preserving each vessel's own order, so exactly the same
// fixes are accepted) must give byte-identical results.
func TestEncountersInvariantToArrivalOrder(t *testing.T) {
	mid := geo.Point{Lon: 24.5, Lat: 37.5}
	start := t0.Add(-10 * time.Minute)
	tracks := [][]ais.Fix{
		track(1, geo.Destination(mid, 270, 4000), 90, 12, start, time.Minute, 11),
		track(2, geo.Destination(mid, 90, 4000), 270, 12, start, time.Minute, 11),
		track(3, geo.Destination(mid, 0, 2500), 180, 9, start, time.Minute, 11),
		track(4, geo.Destination(mid, 135, 9000), 315, 15, start, time.Minute, 11),
		track(5, geo.Destination(mid, 200, 1200), 20, 0.5, start, time.Minute, 11),
	}

	run := func(order []ais.Fix) []Encounter {
		d := New(Params{})
		for _, f := range order {
			d.Observe(f)
		}
		return d.Encounters(t0)
	}

	var roundRobin []ais.Fix
	for i := 0; i < 11; i++ {
		for _, tr := range tracks {
			roundRobin = append(roundRobin, tr[i])
		}
	}
	want := run(roundRobin)
	if len(want) == 0 {
		t.Fatal("fixture produced no encounters; the invariance check would be vacuous")
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		// Random fair interleaving: repeatedly pop the head of a random
		// non-empty track. Per-vessel order is preserved by construction.
		heads := make([]int, len(tracks))
		var order []ais.Fix
		for len(order) < len(roundRobin) {
			i := rng.Intn(len(tracks))
			if heads[i] < len(tracks[i]) {
				order = append(order, tracks[i][heads[i]])
				heads[i]++
			}
		}
		if got := run(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: encounters differ under reordering:\n got %v\nwant %v",
				trial, got, want)
		}
	}
}

// A pair closing at only 0.3 m/s is suppressed by the default
// MinClosingMS (0.5) but must alarm when the caller explicitly asks
// for a finer gate — the override must not be clobbered by defaults.
func TestMinClosingOverride(t *testing.T) {
	base := geo.Point{Lon: 24.5, Lat: 37.5}
	const lead, chase = 4.42, 5.0 // knots; overtaking at ≈0.30 m/s
	setup := func(p Params) *Detector {
		d := New(p)
		feed(d, 1, base, 90, chase)
		feed(d, 2, geo.Destination(base, 90, 100), 90, lead)
		return d
	}
	if enc := setup(Params{}).Encounters(t0); len(enc) != 0 {
		t.Errorf("slow overtake alarmed under the default closing gate: %v", enc)
	}
	enc := setup(Params{MinClosingMS: 0.2}).Encounters(t0)
	if len(enc) != 1 {
		t.Fatalf("slow overtake with MinClosingMS=0.2: encounters = %v, want 1", enc)
	}
	if enc[0].A != 1 || enc[0].B != 2 {
		t.Errorf("pair = %d,%d", enc[0].A, enc[0].B)
	}
}

// The DCPA comparison is a strict exclusion (dcpa > threshold), so a
// pair predicted to pass exactly at the threshold distance still
// alarms. Exercised directly on planar states where the geometry is
// exact: reciprocal courses offset laterally by precisely 500 m.
func TestExactThresholdPairAlarms(t *testing.T) {
	p := Params{}.withDefaults() // DistanceMeters = 500
	a := planar{mmsi: 1, x: 0, y: 0, vx: 5, vy: 0, speedKn: 10}
	b := planar{mmsi: 2, x: 2000, y: 500, vx: -5, vy: 0, speedKn: 10}
	enc, ok := cpa(a, b, p)
	if !ok {
		t.Fatal("pair at exactly the DCPA threshold did not alarm")
	}
	if enc.DCPA != 500 {
		t.Errorf("DCPA = %v, want exactly 500", enc.DCPA)
	}
	if want := 200 * time.Second; enc.TCPA != want {
		t.Errorf("TCPA = %v, want %v", enc.TCPA, want)
	}
	// One millimeter wider and the strict exclusion kicks in.
	b.y = 500.001
	if _, ok := cpa(a, b, p); ok {
		t.Error("pair just beyond the threshold alarmed")
	}
}

// bruteForce replays Encounters' projection on the detector's state
// but sweeps all pairs with no spatial pruning — the oracle the
// index-driven query must match exactly.
func bruteForce(d *Detector, now time.Time) []Encounter {
	p := d.params
	mmsis := make([]uint32, 0, len(d.vessels))
	for mmsi, k := range d.vessels {
		if k.haveVel && now.Sub(k.at) <= p.Stale {
			mmsis = append(mmsis, mmsi)
		}
	}
	slices.Sort(mmsis)
	var ref geo.Point
	var states []planar
	for i, mmsi := range mmsis {
		k := d.vessels[mmsi]
		if i == 0 {
			ref = k.pos
		}
		ms := geo.KnotsToMetersPerSecond(k.vel.SpeedKnots)
		brng := k.vel.HeadingDeg * math.Pi / 180
		pos := geo.Destination(k.pos, k.vel.HeadingDeg, ms*now.Sub(k.at).Seconds())
		x, y := planarOffset(ref, pos)
		states = append(states, planar{
			mmsi: mmsi, geo: pos, x: x, y: y,
			vx: ms * math.Sin(brng), vy: ms * math.Cos(brng), speedKn: k.vel.SpeedKnots,
		})
	}
	var out []Encounter
	for i := range states {
		for j := i + 1; j < len(states); j++ {
			if enc, ok := cpa(states[i], states[j], p); ok {
				enc.A, enc.B = states[i].mmsi, states[j].mmsi
				enc.Where = planarToGeo(ref, enc.Where.Lon, enc.Where.Lat)
				out = append(out, enc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TCPA != out[j].TCPA {
			return out[i].TCPA < out[j].TCPA
		}
		return out[i].A < out[j].A
	})
	return out
}

// The index-driven Encounters must agree with the all-pairs oracle on
// randomized fleets: pruning may skip pairs that cannot alarm, never
// pairs that do, and must not duplicate any.
func TestIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Params{})
		// A few dense clusters (encounter-rich) plus scattered traffic.
		for c := 0; c < 4; c++ {
			center := geo.Point{Lon: 23 + rng.Float64()*3, Lat: 36.5 + rng.Float64()*2}
			for i := 0; i < 12; i++ {
				pos := geo.Destination(center, rng.Float64()*360, rng.Float64()*6000)
				feed(d, uint32(seed*10_000+int64(c)*100+int64(i)),
					pos, rng.Float64()*360, 2+rng.Float64()*16)
			}
		}
		for i := 0; i < 40; i++ {
			pos := geo.Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*5}
			feed(d, uint32(seed*10_000+5000+int64(i)), pos, rng.Float64()*360, 2+rng.Float64()*16)
		}
		want := bruteForce(d, t0)
		got := d.Encounters(t0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: index-driven encounters diverge from brute force:\n got %d %v\nwant %d %v",
				seed, len(got), got, len(want), want)
		}
		if len(want) == 0 {
			t.Errorf("seed %d: oracle found no encounters; fixture too sparse", seed)
		}
	}
}

// The index scan pads each row's longitude span by that row's own
// worst-case latitude, so near the reach boundary at high latitude the
// equatorward vessel's scan can see the poleward one while the reverse
// scan misses it. Encounters must then handle the pair from the higher
// index (the j < i branch). Fixture: vessel 1 (index 0) poleward,
// vessel 2 (index 1) equatorward, placed where only vessel 2's scan
// sees vessel 1, both faster than MaxSpeedKnots and closing head-on so
// the pair genuinely alarms. Skipping the j < i branch loses it.
func TestEncountersOwnsAsymmetricBoundaryPair(t *testing.T) {
	params := Params{MaxSpeedKnots: 10}
	poleward := geo.Point{Lon: 18.3, Lat: 70.04}
	const speedKn = 30
	for dist := 12_000.0; dist < 20_000; dist += 50 {
		for brng := 180.0; brng < 270; brng += 5 {
			south := geo.Destination(poleward, brng, dist)
			d := New(params)
			d.ObservePoint(1, poleward, t0, speedKn, geo.Bearing(poleward, south))
			d.ObservePoint(2, south, t0, speedKn, geo.Bearing(south, poleward))
			got := d.Encounters(t0)
			p := d.params
			reach := 2*geo.KnotsToMetersPerSecond(p.MaxSpeedKnots)*p.Horizon.Seconds() + p.DistanceMeters
			s0, s1 := d.states[0].geo, d.states[1].geo
			if d.idx.CoverOf(s1, reach).From(s0) || !d.idx.CoverOf(s0, reach).From(s1) {
				continue // not the asymmetric case: index 0's scan sees index 1, or neither sees the other
			}
			want := bruteForce(d, t0)
			if len(want) != 1 {
				t.Fatalf("dist %.0f m bearing %.0f: oracle found %d encounters, want the closing pair", dist, brng, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dist %.0f m bearing %.0f: boundary pair mishandled:\n got %v\nwant %v", dist, brng, got, want)
			}
			return
		}
	}
	t.Fatal("no asymmetric boundary placement found; the fixture no longer exercises the j < i branch")
}
