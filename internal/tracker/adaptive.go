package tracker

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ais"
	"repro/internal/geo"
	"repro/internal/stream"
)

// Adaptive trajectory compression, after "Optimizing Vessel Trajectory
// Compression" (Fikioris & Patroumpas): instead of one fleet-wide set of
// critical-point thresholds, each vessel class gets its thresholds
// scaled by a multiplier that is periodically re-tuned against a
// reconstruction-error budget. Vessels are classed by observed speed
// band — a docked bunker barge tolerates a much coarser synopsis than a
// hydrofoil — and the tuner picks, per class, the largest (most
// compressing) multiplier whose reconstruction RMSE over recently
// sampled raw trajectories stays within budget.
//
// The tuner is strictly opt-in: a tier without EnableAdaptive carries a
// nil *AdaptiveState, every threshold passes through unscaled, and the
// output is bit-identical to the fixed-threshold tracker. With the tuner
// on, multipliers only change between slides, on the coordinating
// goroutine, before shard fan-out: the job-channel sends publish them to
// the pool workers, so shards never observe a mid-slide change.

// Speed-band vessel classes.
const (
	classAnchored = iota // below the moving threshold
	classSlow            // moving, at or below the slow-motion band
	classCruise          // ordinary transit
	classFast            // high-speed craft
	numSpeedClasses
)

// classOf buckets a reference speed into its vessel class.
func classOf(speedKn float64, p *Params) int {
	switch {
	case speedKn <= p.VMinKnots:
		return classAnchored
	case speedKn <= p.VSlowKnots:
		return classSlow
	case speedKn <= 3*p.VSlowKnots:
		return classCruise
	default:
		return classFast
	}
}

// AdaptiveConfig tunes the compression tuner.
type AdaptiveConfig struct {
	// RMSEBudgetMeters is the reconstruction-error budget: the largest
	// acceptable root-mean-square distance between raw positions and the
	// trajectory rebuilt from critical points alone.
	RMSEBudgetMeters float64
	// EvalEverySlides is the re-tuning cadence.
	EvalEverySlides int
	// SampleVessels caps how many vessels per class are replayed during
	// one evaluation.
	SampleVessels int
	// SampleFixesPerVessel caps the raw fixes buffered per sampled
	// vessel between evaluations.
	SampleFixesPerVessel int
	// Multipliers is the candidate threshold-multiplier ladder. Values
	// below 1 tighten compression, values above loosen it. 1 (the fixed
	// default) is always considered even if absent.
	Multipliers []float64
}

// DefaultAdaptiveConfig returns a conservative tuner configuration: a
// 100 m error budget, re-tuned every 32 slides over up to 8 vessels per
// class.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		RMSEBudgetMeters:     100,
		EvalEverySlides:      32,
		SampleVessels:        8,
		SampleFixesPerVessel: 256,
		Multipliers:          []float64{4, 3, 2, 1.5, 1},
	}
}

// Validate checks the configuration.
func (c *AdaptiveConfig) Validate() error {
	if c.RMSEBudgetMeters <= 0 {
		return fmt.Errorf("adaptive: RMSEBudgetMeters must be positive")
	}
	if c.EvalEverySlides <= 0 {
		return fmt.Errorf("adaptive: EvalEverySlides must be positive")
	}
	if c.SampleVessels <= 0 || c.SampleFixesPerVessel <= 0 {
		return fmt.Errorf("adaptive: sample sizes must be positive")
	}
	for _, m := range c.Multipliers {
		if m <= 0 {
			return fmt.Errorf("adaptive: multiplier %v must be positive", m)
		}
	}
	return nil
}

// vesselSample is the raw-fix buffer of one sampled vessel.
type vesselSample struct {
	fixes []ais.Fix
}

// AdaptiveState is the tier-level tuner state. It is mutated only on the
// coordinating goroutine (inside Sharded.Slide, before fan-out); shard
// workers read the multiplier table through the happens-before edge of
// their job-channel receive.
type AdaptiveState struct {
	cfg    AdaptiveConfig
	params Params
	window stream.WindowSpec

	mults   [numSpeedClasses]float64
	samples map[uint32]*vesselSample
	slides  int

	lastRMSE [numSpeedClasses]float64
}

func newAdaptiveState(cfg AdaptiveConfig, params Params, window stream.WindowSpec) *AdaptiveState {
	a := &AdaptiveState{
		cfg:     cfg,
		params:  params,
		window:  window,
		samples: make(map[uint32]*vesselSample),
	}
	if !slices.Contains(a.cfg.Multipliers, 1) {
		a.cfg.Multipliers = append(slices.Clone(a.cfg.Multipliers), 1)
	}
	// Consider the most compressing candidates first: the first one
	// within budget wins.
	slices.Sort(a.cfg.Multipliers)
	slices.Reverse(a.cfg.Multipliers)
	for i := range a.mults {
		a.mults[i] = 1
	}
	return a
}

// EnableAdaptive turns on adaptive compression for the tier. It must be
// called before the first Slide.
func (s *Sharded) EnableAdaptive(cfg AdaptiveConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.adaptive = newAdaptiveState(cfg, s.Params(), s.shards[0].window)
	for _, tr := range s.shards {
		tr.adaptive = s.adaptive
	}
	return nil
}

// Multipliers returns the current per-class threshold multipliers,
// indexed anchored/slow/cruise/fast. For observability and tests; call
// between slides.
func (s *Sharded) Multipliers() []float64 {
	if s.adaptive == nil {
		return nil
	}
	return s.adaptive.mults[:]
}

// multFor resolves the threshold multiplier for a vessel whose reference
// speed (its previous velocity) is known. Vessels without an established
// velocity keep the default thresholds.
func (a *AdaptiveState) multFor(speedKn float64, haveV bool) float64 {
	if !haveV {
		return 1
	}
	return a.mults[classOf(speedKn, &a.params)]
}

// observe folds one slide's raw batch into the sample buffers and
// re-tunes on cadence. Runs serially on the coordinator.
func (a *AdaptiveState) observe(b stream.Batch) {
	sampleCap := a.cfg.SampleVessels * numSpeedClasses * 2
	for _, f := range b.Fixes {
		vs := a.samples[f.MMSI]
		if vs == nil {
			if len(a.samples) >= sampleCap {
				continue
			}
			vs = &vesselSample{}
			a.samples[f.MMSI] = vs
		}
		if len(vs.fixes) < a.cfg.SampleFixesPerVessel {
			vs.fixes = append(vs.fixes, f)
		}
	}
	a.slides++
	if a.slides%a.cfg.EvalEverySlides == 0 {
		a.evaluate()
		clear(a.samples)
	}
}

// meanSpeedOf estimates a sampled trajectory's reference speed in knots:
// total great-circle distance over total elapsed time.
func meanSpeedOf(fixes []ais.Fix) (float64, bool) {
	var dist float64
	for i := 1; i < len(fixes); i++ {
		dist += geo.Haversine(fixes[i-1].Pos, fixes[i].Pos)
	}
	dt := fixes[len(fixes)-1].Time.Sub(fixes[0].Time).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return geo.MetersPerSecondToKnots(dist / dt), true
}

// evaluate re-tunes every class that has samples: each candidate
// multiplier is trialled by replaying the class's sampled trajectories
// through a throwaway fixed-threshold tracker with scaled parameters,
// reconstructing each trajectory from the critical points it emits, and
// measuring the RMSE against the raw positions. The largest candidate
// within budget wins; a class with no passing candidate falls back to
// the default thresholds.
func (a *AdaptiveState) evaluate() {
	var byClass [numSpeedClasses][][]ais.Fix
	for _, vs := range a.samples {
		if len(vs.fixes) < 2*a.params.M {
			continue // too short to exercise the run detectors
		}
		speed, ok := meanSpeedOf(vs.fixes)
		if !ok {
			continue
		}
		c := classOf(speed, &a.params)
		if len(byClass[c]) < a.cfg.SampleVessels {
			byClass[c] = append(byClass[c], vs.fixes)
		}
	}
	for c := range byClass {
		if len(byClass[c]) == 0 {
			continue // no evidence: keep the current multiplier
		}
		chosen := 1.0
		for _, m := range a.cfg.Multipliers {
			rmse, ok := a.trialRMSE(byClass[c], m)
			if !ok {
				continue
			}
			if rmse <= a.cfg.RMSEBudgetMeters {
				chosen = m
				a.lastRMSE[c] = rmse
				break
			}
		}
		a.mults[c] = chosen
	}
}

// scaledParams applies a threshold multiplier the same way ingest does.
func (a *AdaptiveState) scaledParams(m float64) Params {
	p := a.params
	p.TurnThresholdDeg *= m
	p.SpeedChangeFrac = math.Min(p.SpeedChangeFrac*m, 1)
	p.StopRadiusMeters *= m
	return p
}

// trialRMSE replays the sampled trajectories through a throwaway tracker
// at the given multiplier and returns the pooled reconstruction RMSE.
func (a *AdaptiveState) trialRMSE(trajs [][]ais.Fix, m float64) (float64, bool) {
	var sumSq float64
	var n int
	for _, fixes := range trajs {
		tr := New(a.scaledParams(m), a.window)
		res := tr.Slide(stream.Batch{
			Fixes: fixes,
			Query: fixes[len(fixes)-1].Time.Add(a.window.Slide),
		})
		for _, f := range fixes {
			d, ok := reconstructError(res.Fresh, f)
			if !ok {
				continue
			}
			sumSq += d * d
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Sqrt(sumSq / float64(n)), true
}

// reconstructError rebuilds the position at f.Time from the critical
// points alone — time-proportional interpolation between the bracketing
// points, as the paper's trajectory reconstruction does — and returns
// the great-circle distance to the raw position.
func reconstructError(cps []CriticalPoint, f ais.Fix) (float64, bool) {
	if len(cps) == 0 {
		return 0, false
	}
	// Critical points are emitted in near-time order; find the bracket
	// around f.Time among points of the same vessel.
	var prev, next *CriticalPoint
	for i := range cps {
		cp := &cps[i]
		if cp.MMSI != f.MMSI {
			continue
		}
		if !cp.Time.After(f.Time) {
			if prev == nil || cp.Time.After(prev.Time) {
				prev = cp
			}
		} else if next == nil || cp.Time.Before(next.Time) {
			next = cp
		}
	}
	switch {
	case prev == nil && next == nil:
		return 0, false
	case prev == nil:
		return geo.Haversine(next.Pos, f.Pos), true
	case next == nil:
		return geo.Haversine(prev.Pos, f.Pos), true
	}
	span := next.Time.Sub(prev.Time).Seconds()
	if span <= 0 {
		return geo.Haversine(prev.Pos, f.Pos), true
	}
	frac := f.Time.Sub(prev.Time).Seconds() / span
	rec := geo.Interpolate(prev.Pos, next.Pos, frac)
	return geo.Haversine(rec, f.Pos), true
}

// LastRMSE returns the reconstruction RMSE measured for each class at
// its last re-tuning (zero for classes never tuned). For observability
// and tests; call between slides.
func (s *Sharded) LastRMSE() []float64 {
	if s.adaptive == nil {
		return nil
	}
	return s.adaptive.lastRMSE[:]
}
