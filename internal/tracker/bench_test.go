package tracker

import (
	"testing"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/stream"
)

// benchWorkload is the benchmark fleet: the same shape as the BENCH
// artifact's baseline workload (seed 42, 400 vessels, 2 h, 5 min slides).
func benchWorkload(b *testing.B) (batches []stream.Batch, fixes int) {
	b.Helper()
	cfg := fleetsim.DefaultConfig()
	cfg.Seed = 42
	cfg.Vessels = 400
	cfg.Duration = 2 * time.Hour
	all := fleetsim.NewSimulator(cfg).Run()
	batcher := stream.NewBatcher(stream.NewSliceSource(all), 5*time.Minute)
	for {
		bt, ok := batcher.Next()
		if !ok {
			break
		}
		batches = append(batches, bt)
	}
	return batches, len(all)
}

func benchSlide(b *testing.B, batches []stream.Batch, fixes, shards int) {
	window := stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}
	params := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewSharded(params, window, shards)
		for _, bt := range batches {
			tr.Slide(bt)
		}
		tr.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixes), "ns/fix")
	b.ReportMetric(float64(b.N*fixes)/b.Elapsed().Seconds(), "fixes/s")
}

// BenchmarkShardedSlide replays the baseline workload through the
// tracking tier at 1 and 4 shards.
func BenchmarkShardedSlide(b *testing.B) {
	batches, fixes := benchWorkload(b)
	b.Run("1shard", func(b *testing.B) { benchSlide(b, batches, fixes, 1) })
	b.Run("4shard", func(b *testing.B) { benchSlide(b, batches, fixes, 4) })
}

// shiftBatches advances every batch (its fixes and its query time) by d,
// in place, so the same workload can be replayed against a warm tracker
// as the next stretch of stream time.
func shiftBatches(batches []stream.Batch, d time.Duration) {
	for i := range batches {
		batches[i].Query = batches[i].Query.Add(d)
		for j := range batches[i].Fixes {
			f := &batches[i].Fixes[j]
			f.Time = f.Time.Add(d)
		}
	}
}

// BenchmarkSteadySlide measures the steady state the long-running
// deployment sits in: one warm tracking tier, vessels and window
// populated, replaying the workload as consecutive stretches of stream
// time. One op is one full 2 h replay (24 slides). Cold-start costs —
// vessel-map growth, per-vessel state allocation, slice warm-up — are
// excluded, which is exactly what distinguishes this row from
// BenchmarkShardedSlide.
func BenchmarkSteadySlide(b *testing.B) {
	batches, fixes := benchWorkload(b)
	span := 2 * time.Hour
	tr := NewSharded(DefaultParams(), stream.WindowSpec{Range: time.Hour, Slide: 5 * time.Minute}, 1)
	defer tr.Close()
	// Warm up: one full pass populates the fleet and fills the window.
	for _, bt := range batches {
		tr.Slide(bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shiftBatches(batches, span)
		for _, bt := range batches {
			tr.Slide(bt)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fixes), "ns/fix")
	b.ReportMetric(float64(b.N*fixes)/b.Elapsed().Seconds(), "fixes/s")
}
