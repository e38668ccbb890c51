package analytics

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/tracker"
)

// benchFleet drives a paper-scale analytics population: 3,300 vessels
// over the Aegean, one in five loitering next to a partner (some of
// them inside a port's standoff), the rest under way and reporting a
// critical point on about a third of the one-minute slides.
type benchFleet struct {
	rng     *rand.Rand
	pos     []geo.Point
	heading []float64
	speed   []float64 // knots; 0 for loiterers
	q       time.Time
}

const benchVessels = 3300

func newBenchFleet() *benchFleet {
	f := &benchFleet{rng: rand.New(rand.NewSource(1)), q: t0}
	for i := 0; i < benchVessels; i++ {
		p := geo.Point{Lon: 20 + f.rng.Float64()*8, Lat: 34 + f.rng.Float64()*6}
		speed := 4 + f.rng.Float64()*14
		if i%5 == 1 { // partner of the loiterer before it
			p = geo.Destination(f.pos[i-1], f.rng.Float64()*360, 150)
		}
		if i%5 <= 1 {
			speed = 0
		}
		f.pos = append(f.pos, p)
		f.heading = append(f.heading, f.rng.Float64()*360)
		f.speed = append(f.speed, speed)
	}
	return f
}

// ports are squares around a few loitering pairs.
func (f *benchFleet) ports() []*geo.Polygon {
	var out []*geo.Polygon
	for i := 0; i < benchVessels; i += 50 {
		c := f.pos[i]
		out = append(out, geo.MustPolygon([]geo.Point{
			{Lon: c.Lon - 0.01, Lat: c.Lat - 0.01}, {Lon: c.Lon + 0.01, Lat: c.Lat - 0.01},
			{Lon: c.Lon + 0.01, Lat: c.Lat + 0.01}, {Lon: c.Lon - 0.01, Lat: c.Lat + 0.01},
		}))
	}
	return out
}

// next advances the fleet one slide and returns the slide's query time
// and critical points: the first slide opens every loiterer's stop
// episode, later slides carry the moving vessels' course changes.
func (f *benchFleet) next() (time.Time, []tracker.CriticalPoint) {
	first := f.q.Equal(t0)
	f.q = f.q.Add(time.Minute)
	var pts []tracker.CriticalPoint
	for i := range f.pos {
		if f.speed[i] == 0 {
			if first {
				pts = append(pts, cp(uint32(i+1), f.pos[i], f.q, tracker.EventStopStart, 0.2, 0))
			}
			continue
		}
		f.pos[i] = geo.Destination(f.pos[i], f.heading[i], geo.KnotsToMetersPerSecond(f.speed[i])*60)
		if first || f.rng.Intn(3) == 0 {
			f.heading[i] = f.rng.Float64() * 360
			pts = append(pts, cp(uint32(i+1), f.pos[i], f.q, tracker.EventSpeedChange, f.speed[i], f.heading[i]))
		}
	}
	return f.q, pts
}

// BenchmarkTierSlide is one steady analytics slide at about the
// live-paper analytics population, collision screening on: vessel
// state upkeep, the rendezvous screen with its port filter, and the CPA
// screen. Generating the slide's points is not timed.
func BenchmarkTierSlide(b *testing.B) {
	f := newBenchFleet()
	tier := New(Config{EnableCollision: true}, f.ports())
	// Warm past the collision screen's 15-minute staleness, so the
	// loiterers' one stop-start point has aged out of it as it does live.
	for i := 0; i < 20; i++ {
		tier.Slide(f.next())
	}
	warm := tier.Stats().CPAPairs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q, pts := f.next()
		b.StartTimer()
		tier.Slide(q, pts)
	}
	b.StopTimer()
	st := tier.Stats()
	if st.Vessels < benchVessels || st.CPAPairs == 0 {
		b.Fatalf("fleet not exercised: %+v", st)
	}
	b.ReportMetric(float64(st.CPAPairs-warm)/float64(b.N), "cpa-pairs/slide")
}
