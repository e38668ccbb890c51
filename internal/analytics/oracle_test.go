package analytics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/maritime"
	"repro/internal/tracker"
)

// oracle is an independent reference for the rendezvous and
// dark-rendezvous screens: no proximity index, no area index, no
// incremental gap store. Rendezvous is decided over all loitering pairs
// by Haversine distance and every port polygon's exact distance; dark
// linking is decided over every pair of closed gaps in the history.
//
// Eviction is not modeled: the tier only evicts vessels that are
// neither loitering nor dark, which neither screen can use, and the
// fixtures advance every vessel's clock, so a re-created state behaves
// like the evicted one.
type oracle struct {
	cfg   Config
	ports []*geo.Polygon

	vessels map[uint32]*oracleVessel
	gaps    []oracleGap // every closed gap, in closing order
	streak  map[pairKey]int
	emitted map[pairKey]bool
	slide   int
	prevQ   time.Time

	portSuppressed int // pairs within DistanceMeters dropped for a port
	expired        int // gap pairs skipped because the earlier gap aged out
}

type oracleVessel struct {
	pos        geo.Point
	at         time.Time
	speedKn    float64
	slow, dark bool
	gapStart   geo.Point
	gapStartAt time.Time
}

type oracleGap struct {
	gap   gapRec
	slide int // the slide it closed in
}

func newOracle(cfg Config, ports []*geo.Polygon) *oracle {
	return &oracle{
		cfg:     cfg.withDefaults(),
		ports:   ports,
		vessels: make(map[uint32]*oracleVessel),
		streak:  make(map[pairKey]int),
		emitted: make(map[pairKey]bool),
	}
}

func (o *oracle) Slide(q time.Time, fresh []tracker.CriticalPoint) []maritime.Alert {
	pts := slices.Clone(fresh)
	tracker.SortCriticalPoints(pts)
	var out []maritime.Alert
	for _, cp := range pts {
		v := o.vessels[cp.MMSI]
		if v == nil {
			v = &oracleVessel{}
			o.vessels[cp.MMSI] = v
		}
		if cp.Time.After(v.at) {
			v.pos, v.at, v.speedKn = cp.Pos, cp.Time, cp.SpeedKn
		}
		switch cp.Type {
		case tracker.EventStopStart, tracker.EventSlowStart:
			v.slow = true
		case tracker.EventStopEnd, tracker.EventSlowEnd:
			v.slow = false
		case tracker.EventGapStart:
			v.dark, v.gapStart, v.gapStartAt = true, cp.Pos, cp.Time
		case tracker.EventGapEnd:
			if v.dark {
				g := gapRec{MMSI: cp.MMSI, StartPos: v.gapStart, StartAt: v.gapStartAt, EndPos: cp.Pos, EndAt: cp.Time}
				out = append(out, o.darkLinks(g)...)
				o.gaps = append(o.gaps, oracleGap{gap: g, slide: o.slide})
			}
			v.dark = false
		}
	}
	out = append(out, o.rendezvous(q)...)
	slices.SortStableFunc(out, maritime.CompareAlerts)
	o.prevQ = q
	o.slide++
	return out
}

// darkLinks pairs a just-closed gap with every earlier closed gap of
// another vessel still inside the retention: gaps closed in this slide
// always are, earlier ones if they ended no more than Retention before
// the previous slide's query time.
func (o *oracle) darkLinks(g gapRec) []maritime.Alert {
	p := o.cfg.Dark
	var out []maritime.Alert
	for _, og := range o.gaps {
		h := og.gap
		if h.MMSI == g.MMSI {
			continue
		}
		if og.slide < o.slide && h.EndAt.Before(o.prevQ.Add(-p.Retention)) {
			o.expired++
			continue
		}
		start, end := g.StartAt, g.EndAt
		if h.StartAt.After(start) {
			start = h.StartAt
		}
		if h.EndAt.Before(end) {
			end = h.EndAt
		}
		if end.Sub(start) < p.MinOverlap {
			continue
		}
		if oracleKnots(g) > p.MaxImpliedKn || oracleKnots(h) > p.MaxImpliedKn {
			continue
		}
		endDist := geo.Haversine(g.EndPos, h.EndPos)
		if endDist > p.ConvergeMeters || endDist >= geo.Haversine(g.StartPos, h.StartPos) {
			continue
		}
		at := g.EndAt
		if h.EndAt.After(at) {
			at = h.EndAt
		}
		out = append(out, maritime.Alert{
			CE: maritime.CEDarkRendezvous, Time: at,
			Vessel: min(g.MMSI, h.MMSI), Vessel2: max(g.MMSI, h.MMSI),
		})
	}
	return out
}

func oracleKnots(g gapRec) float64 {
	secs := g.EndAt.Sub(g.StartAt).Seconds()
	if secs <= 0 {
		return 0
	}
	return geo.MetersPerSecondToKnots(geo.Haversine(g.StartPos, g.EndPos) / secs)
}

// rendezvous matches every loitering pair within DistanceMeters whose
// two ends are both beyond PortStandoffMeters of every port, and fires
// a pair once when its run of consecutive matched slides reaches
// MinSlides.
func (o *oracle) rendezvous(q time.Time) []maritime.Alert {
	p := o.cfg.Rendezvous
	var loiter []uint32
	for mmsi, v := range o.vessels {
		if v.slow && !v.dark && v.speedKn <= p.MaxSpeedKn {
			loiter = append(loiter, mmsi)
		}
	}
	slices.Sort(loiter)
	matched := make(map[pairKey]bool)
	for i, a := range loiter {
		for _, b := range loiter[i+1:] {
			pa, pb := o.vessels[a].pos, o.vessels[b].pos
			if geo.Haversine(pa, pb) > p.DistanceMeters {
				continue
			}
			if o.nearPort(pa) || o.nearPort(pb) {
				o.portSuppressed++
				continue
			}
			matched[pairKey{a, b}] = true
		}
	}
	for k := range o.streak {
		if !matched[k] {
			delete(o.streak, k)
			delete(o.emitted, k)
		}
	}
	keys := make([]pairKey, 0, len(matched))
	for k := range matched {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePairKeys)
	var out []maritime.Alert
	for _, k := range keys {
		o.streak[k]++
		if o.streak[k] >= p.MinSlides && !o.emitted[k] {
			o.emitted[k] = true
			out = append(out, maritime.Alert{CE: maritime.CERendezvous, Time: q, Vessel: k.a, Vessel2: k.b})
		}
	}
	return out
}

func (o *oracle) nearPort(p geo.Point) bool {
	for _, pg := range o.ports {
		if pg.DistanceMeters(p) <= o.cfg.Rendezvous.PortStandoffMeters {
			return true
		}
	}
	return false
}

// randomFleetSlides generates slides of critical points for a fleet
// crowded into a few kilometers around two ports: vessels drift in
// short steps, enter and leave stop/slow episodes, and go dark and
// resurface, some of them implausibly far away. Every vessel's points
// carry strictly increasing times.
func randomFleetSlides(rng *rand.Rand, vessels, slides int, slide time.Duration) ([][]tracker.CriticalPoint, []time.Time) {
	origin := geo.Point{Lon: 24.5, Lat: 37.5}
	pos := make([]geo.Point, vessels)
	for i := range pos {
		pos[i] = geo.Destination(origin, rng.Float64()*360, rng.Float64()*3000)
	}
	types := []tracker.EventType{
		tracker.EventStopStart, tracker.EventStopStart, tracker.EventStopStart, tracker.EventSlowStart,
		tracker.EventStopEnd, tracker.EventSlowEnd, tracker.EventSpeedChange,
		tracker.EventTurn, tracker.EventGapStart, tracker.EventGapEnd,
	}
	var out [][]tracker.CriticalPoint
	var qs []time.Time
	for s := 0; s < slides; s++ {
		q := t0.Add(time.Duration(s+1) * slide)
		var pts []tracker.CriticalPoint
		for i := 0; i < vessels; i++ {
			if rng.Float64() < 0.6 {
				continue // silent this slide
			}
			n := 1 + rng.Intn(2)
			// Distinct, increasing per-vessel times at second resolution
			// anywhere in the slide.
			secs := rng.Perm(int(slide / time.Second))[:n]
			slices.Sort(secs)
			for k := 0; k < n; k++ {
				typ := types[rng.Intn(len(types))]
				step := rng.Float64() * 300
				if typ == tracker.EventGapEnd && rng.Float64() < 0.2 {
					step = 40_000 // resurfaces too far away for a plausible transit
				}
				pos[i] = geo.Destination(pos[i], rng.Float64()*360, step)
				speed := rng.Float64() * 1.5
				if typ == tracker.EventSpeedChange || typ == tracker.EventTurn {
					speed = 2 + rng.Float64()*10
				}
				at := q.Add(-slide + time.Duration(secs[k]+1)*time.Second)
				pts = append(pts, cp(uint32(1000+i), pos[i], at, typ, speed, rng.Float64()*360))
			}
		}
		rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
		out = append(out, pts)
		qs = append(qs, q)
	}
	return out, qs
}

// The tier's rendezvous and dark-rendezvous alerts must equal the
// brute-force oracle's, alert for alert and slide by slide, on random
// fleets that crowd loiterers inside and outside the port standoff and
// close overlapping, plausible and implausible gaps.
func TestTierMatchesBruteForceOracle(t *testing.T) {
	origin := geo.Point{Lon: 24.5, Lat: 37.5}
	square := func(c geo.Point, half float64) *geo.Polygon {
		return geo.MustPolygon([]geo.Point{
			{Lon: c.Lon - half, Lat: c.Lat - half}, {Lon: c.Lon + half, Lat: c.Lat - half},
			{Lon: c.Lon + half, Lat: c.Lat + half}, {Lon: c.Lon - half, Lat: c.Lat + half},
		})
	}
	ports := []*geo.Polygon{
		square(geo.Destination(origin, 45, 1500), 0.003),
		square(geo.Destination(origin, 220, 2000), 0.002),
	}
	cfg := Config{
		Rendezvous: RendezvousParams{PortStandoffMeters: 600},
		Dark:       DarkParams{Retention: 20 * time.Minute},
	}
	var rendezvous, dark, suppressed, expired int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slides, qs := randomFleetSlides(rng, 60, 24, 10*time.Minute)
		tier := New(cfg, ports)
		ref := newOracle(cfg, ports)
		for s, pts := range slides {
			got := tier.Slide(qs[s], pts)
			want := ref.Slide(qs[s], pts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d slide %d: tier and oracle disagree:\n got %v\nwant %v", seed, s, got, want)
			}
			for _, a := range want {
				switch a.CE {
				case maritime.CERendezvous:
					rendezvous++
				case maritime.CEDarkRendezvous:
					dark++
				}
			}
		}
		suppressed += ref.portSuppressed
		expired += ref.expired
	}
	// Non-vacuity: both screens fired, and the port standoff and the gap
	// retention both excluded pairs.
	if rendezvous == 0 || dark == 0 || suppressed == 0 || expired == 0 {
		t.Fatalf("fixture too sparse: %d rendezvous, %d dark, %d port-suppressed pairs, %d expired gap pairs",
			rendezvous, dark, suppressed, expired)
	}
	t.Logf("%d rendezvous and %d dark-rendezvous alerts matched; %d pairs suppressed by a port, %d gap pairs expired",
		rendezvous, dark, suppressed, expired)
}
