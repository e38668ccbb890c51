package geo

import (
	"math"
	"math/rand"
	"testing"
)

// squareAt returns a square polygon of the given half-side (degrees)
// centered at c.
func squareAt(c Point, half float64) *Polygon {
	return MustPolygon([]Point{
		{c.Lon - half, c.Lat - half},
		{c.Lon + half, c.Lat - half},
		{c.Lon + half, c.Lat + half},
		{c.Lon - half, c.Lat + half},
	})
}

func TestAreaIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var polys []*Polygon
	for i := 0; i < 35; i++ {
		c := Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
		polys = append(polys, squareAt(c, 0.02+rng.Float64()*0.08))
	}
	const threshold = 3000 // meters
	idx := NewAreaIndex(polys, threshold, 0.25)
	if idx.Fallback() {
		t.Fatal("index unexpectedly degenerated to linear scan")
	}

	for trial := 0; trial < 2000; trial++ {
		p := Point{Lon: 19 + rng.Float64()*10, Lat: 33 + rng.Float64()*8}
		got := idx.CloseTo(p, threshold)
		var want []int32
		for i, pg := range polys {
			if pg.DistanceMeters(p) <= threshold {
				want = append(want, int32(i))
			}
		}
		if !equalInt32(got, want) {
			t.Fatalf("CloseTo(%v) = %v, linear scan = %v", p, got, want)
		}
	}
}

func TestAreaIndexContainedIn(t *testing.T) {
	a := squareAt(Point{23, 37}, 0.1)
	b := squareAt(Point{23.05, 37.05}, 0.1) // overlaps a
	c := squareAt(Point{25, 39}, 0.1)       // far away
	idx := NewAreaIndex([]*Polygon{a, b, c}, 1000, 0.1)

	got := idx.ContainedIn(Point{23.04, 37.04}) // inside both a and b
	if !equalInt32(got, []int32{0, 1}) {
		t.Errorf("ContainedIn = %v, want [0 1]", got)
	}
	if got := idx.ContainedIn(Point{10, 10}); got != nil {
		t.Errorf("far point ContainedIn = %v, want nil", got)
	}
}

func TestAreaIndexEmpty(t *testing.T) {
	idx := NewAreaIndex(nil, 1000, 0.1)
	if got := idx.CloseTo(Point{0, 0}, 1000); got != nil {
		t.Errorf("empty index CloseTo = %v, want nil", got)
	}
	if idx.Len() != 0 {
		t.Errorf("Len = %d, want 0", idx.Len())
	}
}

func TestAreaIndexFallbackStillCorrect(t *testing.T) {
	polys := []*Polygon{squareAt(Point{23, 37}, 0.1)}
	// cellDeg=0 forces the fallback path.
	idx := NewAreaIndex(polys, 1000, 0)
	if !idx.Fallback() {
		t.Fatal("expected fallback")
	}
	if got := idx.CloseTo(Point{23, 37}, 1000); !equalInt32(got, []int32{0}) {
		t.Errorf("fallback CloseTo = %v, want [0]", got)
	}
}

func TestAreaIndexNeverMissesWithinThreshold(t *testing.T) {
	// Probe points just inside/outside the threshold ring of one area.
	pg := squareAt(Point{24, 38}, 0.05)
	idx := NewAreaIndex([]*Polygon{pg}, 2000, 0.05)
	edgeMid := Point{24, 38 + 0.05} // midpoint of the top edge
	for _, d := range []float64{10, 500, 1500, 1999} {
		p := Destination(edgeMid, 0, d) // due north of the edge
		if got := idx.CloseTo(p, 2000); len(got) != 1 {
			t.Errorf("point %.0f m away not found (got %v)", d, got)
		}
	}
	far := Destination(edgeMid, 0, 5000)
	if got := idx.CloseTo(far, 2000); got != nil {
		t.Errorf("point 5 km away reported close: %v", got)
	}

	// Wide-latitude regression: a region spanning the equator to ~69°N.
	// Longitude degrees at 69°N are 2.8× shorter than at the equator, so
	// padding with the region-center latitude's cosine (the old bug)
	// leaves the poleward polygon's east/west approaches under-padded
	// and the probe below lands outside the grid bounds — a miss.
	wide := []*Polygon{
		squareAt(Point{24, 0.5}, 0.05),
		squareAt(Point{24, 69}, 0.05),
	}
	widx := NewAreaIndex(wide, 2000, 0.5)
	if widx.Fallback() {
		t.Fatal("wide-latitude index unexpectedly degenerated to linear scan")
	}
	westEdge := Point{Lon: 24 - 0.05, Lat: 69} // midpoint of the west edge
	for _, d := range []float64{100, 1000, 1900} {
		p := Destination(westEdge, 270, d) // due west of the polygon
		if got := widx.CloseTo(p, 2000); !equalInt32(got, []int32{1}) {
			t.Errorf("high-latitude point %.0f m west not found (got %v)", d, got)
		}
	}
	if got := widx.CloseTo(Destination(westEdge, 270, 6000), 2000); got != nil {
		t.Errorf("high-latitude point 6 km west reported close: %v", got)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAreaIndexCloseTo(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var polys []*Polygon
	for i := 0; i < 35; i++ {
		c := Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
		polys = append(polys, squareAt(c, 0.05))
	}
	idx := NewAreaIndex(polys, 3000, 0.25)
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Point{Lon: 20 + rng.Float64()*8, Lat: 34 + rng.Float64()*6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CloseTo(pts[i%len(pts)], 3000)
	}
}

func BenchmarkHaversine(b *testing.B) {
	p1 := Point{23.6467, 37.9421}
	p2 := Point{25.1442, 35.3387}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Haversine(p1, p2)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}

func TestPointIndexMatchesLinearScan(t *testing.T) {
	// Random points across a band reaching high latitude, where the
	// per-row longitude span matters; Near must agree with a brute-force
	// Haversine sweep at every radius.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		idx := NewPointIndex(0.05)
		var pts []Point
		for i := 0; i < 300; i++ {
			p := Point{Lon: 20 + rng.Float64()*6, Lat: 62 + rng.Float64()*6}
			pts = append(pts, p)
			idx.Add(int32(i), p)
		}
		for q := 0; q < 200; q++ {
			p := Point{Lon: 20 + rng.Float64()*6, Lat: 62 + rng.Float64()*6}
			radius := 500 + rng.Float64()*20000
			got := append([]int32(nil), idx.Near(p, radius)...)
			var want []int32
			for i, pt := range pts {
				if Haversine(p, pt) <= radius {
					want = append(want, int32(i))
				}
			}
			sortInt32(got)
			if !equalInt32(got, want) {
				t.Fatalf("Near(%v, %.0f) = %v, linear scan = %v", p, radius, got, want)
			}
		}
	}
}

func TestPointIndexDeterministicOrder(t *testing.T) {
	// Identical Add sequences must give byte-identical candidate orders
	// — the analytics tier's determinism contract rests on this.
	build := func() *PointIndex {
		idx := NewPointIndex(0.1)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			idx.Add(int32(i), Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()})
		}
		return idx
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 100; q++ {
		p := Point{Lon: 23 + rng.Float64(), Lat: 37 + rng.Float64()}
		ga := a.Near(p, 15000)
		gb := b.Near(p, 15000)
		if !equalInt32(ga, gb) {
			t.Fatalf("identical builds disagree at %v: %v vs %v", p, ga, gb)
		}
	}
}

func TestPointIndexCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := NewPointIndex(0.05)
	var pts []Point
	for i := 0; i < 200; i++ {
		p := Point{Lon: 24 + rng.Float64()*2, Lat: 37 + rng.Float64()*2}
		pts = append(pts, p)
		idx.Add(int32(i), p)
	}
	for q := 0; q < 100; q++ {
		p := Point{Lon: 24 + rng.Float64()*2, Lat: 37 + rng.Float64()*2}
		const radius = 4000
		cand := make(map[int32]bool)
		for _, id := range idx.CandidatesAppend(nil, p, radius) {
			cand[id] = true
		}
		for i, pt := range pts {
			if Haversine(p, pt) <= radius && !cand[int32(i)] {
				t.Fatalf("candidates missed point %d (%.0f m away)", i, Haversine(p, pt))
			}
		}
	}
}

// CellCover is the O(1) form of "does a CandidatesAppend scan from p
// report q": differential check against the scan itself over random
// points in latitude bands on both hemispheres (the per-row longitude
// pad widens poleward, so |lat| ≥ 60° is where the scan is most
// asymmetric), at several cell sizes, plus points and query origins
// placed exactly on cell edges.
func TestCellCoverMatchesScan(t *testing.T) {
	// Southern edges of the bands; each fixture is a 5×5-cell square.
	bands := []float64{-2, 36, -44, 60, -70, 78}
	rng := rand.New(rand.NewSource(17))
	var checked, covered, asymmetric int
	for _, cellDeg := range []float64{0.05, 0.1157, 0.45} {
		radius := cellDeg * 111_000 // the collision screen sizes cells to its reach
		for _, lat0 := range bands {
			idx := NewPointIndex(cellDeg)
			span := 5 * cellDeg
			lon0 := -180 + rng.Float64()*350
			random := func() Point {
				return Point{Lon: lon0 + rng.Float64()*span, Lat: lat0 + rng.Float64()*span}
			}
			onEdge := func() Point {
				// Exactly on a cell corner, as cellAt computes it.
				return Point{
					Lon: float64(int(lon0/cellDeg)+rng.Intn(5)) * cellDeg,
					Lat: float64(int(lat0/cellDeg)+rng.Intn(5)) * cellDeg,
				}
			}
			var pts []Point
			for i := 0; i < 300; i++ {
				p := random()
				if i%5 == 0 {
					p = onEdge()
				}
				pts = append(pts, p)
				idx.Add(int32(i), p)
			}
			seen := make([]bool, len(pts))
			for q := 0; q < 120; q++ {
				from := random()
				switch q % 4 {
				case 0:
					from = onEdge()
				case 1:
					from = pts[rng.Intn(len(pts))] // an indexed point's own scan
				}
				clear(seen)
				for _, id := range idx.CandidatesAppend(nil, from, radius) {
					seen[id] = true
				}
				for i, p := range pts {
					got := idx.CoverOf(p, radius).From(from)
					if got != seen[i] {
						t.Fatalf("cell %g lat %g: CoverOf(%v).From(%v) = %v, scan reports it: %v",
							cellDeg, lat0, p, from, got, seen[i])
					}
					checked++
					if got {
						covered++
						if !idx.CoverOf(from, radius).From(p) {
							asymmetric++
						}
					}
				}
			}
		}
	}
	// The check is only meaningful if both answers occur often and the
	// scan's boundary asymmetry is actually exercised.
	if covered < checked/5 || covered > checked*4/5 || asymmetric == 0 {
		t.Fatalf("fixture too one-sided: %d checked, %d covered, %d asymmetric", checked, covered, asymmetric)
	}
	t.Logf("%d pairs checked, %d covered, %d asymmetric", checked, covered, asymmetric)
}

func TestPointIndexResetReuse(t *testing.T) {
	idx := NewPointIndex(0.1)
	p1 := Point{Lon: 24, Lat: 37}
	idx.Add(1, p1)
	if got := idx.Near(p1, 100); !equalInt32(got, []int32{1}) {
		t.Fatalf("Near before reset = %v, want [1]", got)
	}
	idx.Reset()
	if idx.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", idx.Len())
	}
	if got := idx.Near(p1, 100); got != nil {
		t.Errorf("stale member survived Reset: %v", got)
	}
	p2 := Point{Lon: 25, Lat: 38}
	idx.Add(2, p2)
	if got := idx.Near(p2, 100); !equalInt32(got, []int32{2}) {
		t.Errorf("Near after reuse = %v, want [2]", got)
	}
	if got := idx.Near(p1, 100); got != nil {
		t.Errorf("old point leaked into reused index: %v", got)
	}
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
