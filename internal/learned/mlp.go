// Package learned implements the learned cost model of §3.1: a small
// feed-forward regression network trained on (query encoding, running time)
// pairs, following the protocol of Ortiz et al. adapted by SOFOS. The
// encoding captures the relationships, attributes, and aggregate type of the
// view's defining query together with relationship/attribute frequency
// statistics from the graph.
package learned

import (
	"fmt"
	"math"
	"math/rand"
)

// Sample is one training example: a feature vector and the target value
// (log-transformed running time).
type Sample struct {
	X []float64
	Y float64
}

// MLP is a fully connected feed-forward network with ReLU hidden activations
// and a linear output, trained by SGD with momentum on mean squared error.
type MLP struct {
	sizes   []int // layer widths, input first, 1 last
	weights [][]float64
	biases  [][]float64
	velW    [][]float64
	velB    [][]float64
}

// NewMLP builds a network with the given input width and hidden layer
// widths; the output layer is always width 1. Weights are initialized with
// the seeded He scheme so training is reproducible.
func NewMLP(inputDim int, hidden []int, seed int64) (*MLP, error) {
	if inputDim <= 0 {
		return nil, fmt.Errorf("learned: input dimension %d must be positive", inputDim)
	}
	sizes := append([]int{inputDim}, hidden...)
	sizes = append(sizes, 1)
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: sizes}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
		m.velW = append(m.velW, make([]float64, in*out))
		m.velB = append(m.velB, make([]float64, out))
	}
	return m, nil
}

// forward computes activations for every layer; acts[0] is the input.
func (m *MLP) forward(x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	for l := 1; l < len(m.sizes); l++ {
		in, out := m.sizes[l-1], m.sizes[l]
		a := make([]float64, out)
		w, b := m.weights[l-1], m.biases[l-1]
		prev := acts[l-1]
		for j := 0; j < out; j++ {
			sum := b[j]
			for i := 0; i < in; i++ {
				sum += w[j*in+i] * prev[i]
			}
			if l < len(m.sizes)-1 && sum < 0 {
				sum = 0 // ReLU on hidden layers
			}
			a[j] = sum
		}
		acts[l] = a
	}
	return acts
}

// Predict evaluates the network on one input.
func (m *MLP) Predict(x []float64) (float64, error) {
	if len(x) != m.sizes[0] {
		return 0, fmt.Errorf("learned: input has %d features, model expects %d", len(x), m.sizes[0])
	}
	acts := m.forward(x)
	return acts[len(acts)-1][0], nil
}

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs   int
	LR       float64
	Momentum float64
	Seed     int64 // shuffling seed
}

// Train runs SGD over the samples and returns the per-epoch mean squared
// error curve.
func (m *MLP) Train(samples []Sample, cfg TrainConfig) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("learned: no training samples")
	}
	for i, s := range samples {
		if len(s.X) != m.sizes[0] {
			return nil, fmt.Errorf("learned: sample %d has %d features, model expects %d", i, len(s.X), m.sizes[0])
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	curve := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sse float64
		for _, idx := range order {
			s := samples[idx]
			sse += m.step(s, cfg.LR, cfg.Momentum)
		}
		curve = append(curve, sse/float64(len(samples)))
	}
	return curve, nil
}

// step performs one SGD update and returns the squared error before the
// update.
func (m *MLP) step(s Sample, lr, momentum float64) float64 {
	acts := m.forward(s.X)
	out := acts[len(acts)-1][0]
	errv := out - s.Y

	// Backpropagate deltas layer by layer.
	deltas := make([][]float64, len(m.sizes))
	deltas[len(m.sizes)-1] = []float64{errv}
	for l := len(m.sizes) - 2; l >= 1; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.weights[l]
		d := make([]float64, in)
		next := deltas[l+1]
		for i := 0; i < in; i++ {
			if acts[l][i] <= 0 {
				continue // ReLU gradient
			}
			var sum float64
			for j := 0; j < out; j++ {
				sum += w[j*in+i] * next[j]
			}
			d[i] = sum
		}
		deltas[l] = d
	}
	// Gradient update with momentum.
	for l := 1; l < len(m.sizes); l++ {
		in, out := m.sizes[l-1], m.sizes[l]
		w, b := m.weights[l-1], m.biases[l-1]
		vw, vb := m.velW[l-1], m.velB[l-1]
		prev, d := acts[l-1], deltas[l]
		for j := 0; j < out; j++ {
			for i := 0; i < in; i++ {
				g := d[j] * prev[i]
				vw[j*in+i] = momentum*vw[j*in+i] - lr*g
				w[j*in+i] += vw[j*in+i]
			}
			vb[j] = momentum*vb[j] - lr*d[j]
			b[j] += vb[j]
		}
	}
	return errv * errv
}

// Normalizer standardizes features to zero mean and unit variance, fitted on
// the training set. Predict-time inputs reuse the fitted statistics.
type Normalizer struct {
	Mean, Std []float64
}

// FitNormalizer computes per-feature statistics.
func FitNormalizer(samples []Sample) *Normalizer {
	if len(samples) == 0 {
		return &Normalizer{}
	}
	dim := len(samples[0].X)
	n := &Normalizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, s := range samples {
		for i, x := range s.X {
			n.Mean[i] += x
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(len(samples))
	}
	for _, s := range samples {
		for i, x := range s.X {
			d := x - n.Mean[i]
			n.Std[i] += d * d
		}
	}
	for i := range n.Std {
		n.Std[i] = math.Sqrt(n.Std[i] / float64(len(samples)))
		if n.Std[i] < 1e-9 {
			n.Std[i] = 1
		}
	}
	return n
}

// Apply standardizes one vector (copying).
func (n *Normalizer) Apply(x []float64) []float64 {
	if len(n.Mean) == 0 {
		return x
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = (x[i] - n.Mean[i]) / n.Std[i]
	}
	return out
}

// ApplyAll standardizes a sample set in place.
func (n *Normalizer) ApplyAll(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		out[i] = Sample{X: n.Apply(s.X), Y: s.Y}
	}
	return out
}

// LogMicros transforms a duration in microseconds into the regression
// target space; Train targets log(1+µs) so the loss is scale-free.
func LogMicros(micros float64) float64 { return math.Log1p(micros) }

// UnlogMicros inverts LogMicros.
func UnlogMicros(y float64) float64 { return math.Expm1(y) }
