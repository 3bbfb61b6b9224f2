package cost

import (
	"fmt"
	"math/rand"
	"time"

	"sofos/internal/facet"
	"sofos/internal/learned"
	"sofos/internal/rewrite"
	"sofos/internal/store"
	"sofos/internal/views"
)

// MeasureViewTimes measures, for each sampled view, the average wall-clock
// time to answer probe queries when (only) that view is materialized. These
// ground-truth times train the learned model and anchor the cost-fidelity
// experiments (E5, E6, E8): they are what every cost model is trying to
// predict.
//
// The times are the paper's star join over the view's encoding in V
// (rewrite.AnswerStarJoin), not the serving path, which reads the group
// table; V is built before the clock starts.
//
// Probes are roll-up queries over random dimension subsets of the view, so
// every probe is answerable by the view under test.
func MeasureViewTimes(base *store.Graph, l *facet.Lattice, sample []facet.View, probesPerView int, seed int64) (map[facet.Mask]time.Duration, error) {
	if probesPerView <= 0 {
		probesPerView = 3
	}
	rng := rand.New(rand.NewSource(seed))
	out := make(map[facet.Mask]time.Duration, len(sample))
	catalog := views.NewCatalog(base, l.Facet)
	rw := rewrite.New(catalog)
	for _, v := range sample {
		if _, err := catalog.Materialize(v); err != nil {
			return nil, fmt.Errorf("cost: materializing probe view %s: %w", v, err)
		}
		catalog.ExpandedEngine() // build V before any probe is timed
		var total time.Duration
		n := 0
		for p := 0; p < probesPerView; p++ {
			sub := randomSubmask(rng, v.Mask)
			q := l.Facet.View(sub).AnalyticalQuery()
			ans, err := rw.AnswerStarJoin(q)
			if err != nil {
				return nil, fmt.Errorf("cost: probing %s: %w", v, err)
			}
			if !ans.UsedView() {
				return nil, fmt.Errorf("cost: probe for %s unexpectedly fell back to base: %s", v, ans.Reason)
			}
			total += ans.Elapsed
			n++
		}
		out[v.Mask] = total / time.Duration(n)
		catalog.Drop(v)
	}
	return out, nil
}

// MeasureBaseTime measures the average time to answer probe queries directly
// on the base graph (no views), at random granularities of the facet.
func MeasureBaseTime(base *store.Graph, l *facet.Lattice, probes int, seed int64) (time.Duration, error) {
	if probes <= 0 {
		probes = 3
	}
	rng := rand.New(rand.NewSource(seed))
	catalog := views.NewCatalog(base, l.Facet)
	rw := rewrite.New(catalog) // empty catalog: always base
	var total time.Duration
	for p := 0; p < probes; p++ {
		sub := randomSubmask(rng, l.Facet.FullMask())
		q := l.Facet.View(sub).AnalyticalQuery()
		ans, err := rw.Answer(q)
		if err != nil {
			return 0, fmt.Errorf("cost: base probe: %w", err)
		}
		total += ans.Elapsed
	}
	return total / time.Duration(probes), nil
}

// randomSubmask picks a uniformly random submask of m (possibly m itself or
// empty).
func randomSubmask(rng *rand.Rand, m facet.Mask) facet.Mask {
	var out facet.Mask
	for i := 0; i < 32; i++ {
		bit := facet.Mask(1) << i
		if m&bit != 0 && rng.Intn(2) == 0 {
			out |= bit
		}
	}
	return out
}

// TrainConfig configures TrainLearnedModel.
type TrainConfig struct {
	ProbesPerView int   // probe queries per sampled view (default 3)
	SampleLimit   int   // max views to measure; 0 = whole lattice
	Seed          int64 // sampling, probing, and net-init seed
	Hidden        []int // hidden layer widths (default [16, 8])
	Epochs        int   // training epochs (default 400)
}

// TrainResult is the trained model plus its training diagnostics.
type TrainResult struct {
	Model      *LearnedModel
	LossCurve  []float64
	Samples    int
	Times      map[facet.Mask]time.Duration // measured ground truth
	HoldoutErr float64                      // mean relative error on held-out views (0 if none held out)
}

// TrainLearnedModel measures a sample of views, encodes them, and fits the
// regression network, reproducing §3.1's offline training phase.
func TrainLearnedModel(base *store.Graph, l *facet.Lattice, cfg TrainConfig) (*TrainResult, error) {
	if cfg.ProbesPerView <= 0 {
		cfg.ProbesPerView = 3
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{16, 8}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 400
	}
	all := l.Views()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := append([]facet.View(nil), all...)
	if cfg.SampleLimit > 0 && cfg.SampleLimit < len(sample) {
		rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
		sample = sample[:cfg.SampleLimit]
	}
	times, err := MeasureViewTimes(base, l, sample, cfg.ProbesPerView, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	enc := learned.NewEncoder(l.Facet, base.Snapshot())
	var samples []learned.Sample
	for _, v := range sample {
		micros := float64(times[v.Mask].Microseconds())
		samples = append(samples, learned.Sample{
			X: enc.Encode(v),
			Y: learned.LogMicros(micros),
		})
	}
	norm := learned.FitNormalizer(samples)
	normalized := norm.ApplyAll(samples)
	net, err := learned.NewMLP(enc.Dim(), cfg.Hidden, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	curve, err := net.Train(normalized, learned.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.01, Momentum: 0.9, Seed: cfg.Seed + 3,
	})
	if err != nil {
		return nil, err
	}
	baseTime, err := MeasureBaseTime(base, l, cfg.ProbesPerView, cfg.Seed+4)
	if err != nil {
		return nil, err
	}
	model := &LearnedModel{
		Encoder:    enc,
		Net:        net,
		Normalizer: norm,
		Base:       float64(baseTime.Microseconds()),
	}
	res := &TrainResult{Model: model, LossCurve: curve, Samples: len(samples), Times: times}
	// Holdout relative error over views not in the sample.
	var relSum float64
	var relN int
	if cfg.SampleLimit > 0 && cfg.SampleLimit < len(all) {
		inSample := make(map[facet.Mask]bool, len(sample))
		for _, v := range sample {
			inSample[v.Mask] = true
		}
		var holdout []facet.View
		for _, v := range all {
			if !inSample[v.Mask] {
				holdout = append(holdout, v)
			}
		}
		hTimes, err := MeasureViewTimes(base, l, holdout, cfg.ProbesPerView, cfg.Seed+5)
		if err != nil {
			return nil, err
		}
		for _, v := range holdout {
			actual := float64(hTimes[v.Mask].Microseconds())
			if actual <= 0 {
				continue
			}
			pred := model.Cost(v)
			rel := (pred - actual) / actual
			if rel < 0 {
				rel = -rel
			}
			relSum += rel
			relN++
		}
	}
	if relN > 0 {
		res.HoldoutErr = relSum / float64(relN)
	}
	return res, nil
}
