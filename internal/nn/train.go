package nn

import (
	"fmt"
	"math"
	"strings"

	"github.com/maya-defense/maya/internal/rng"
)

// Example is one labeled feature vector.
type Example struct {
	X []float64
	Y int
}

// TrainConfig controls optimization.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// WeightDecay is the L2 penalty coefficient.
	WeightDecay float64
	// Patience stops training after this many epochs without validation
	// improvement (0 disables early stopping).
	Patience int
	// Log, when non-nil, receives each epoch's mean training loss and
	// validation accuracy.
	Log func(epoch int, trainLoss, valAcc float64)
}

// DefaultTrainConfig returns settings that converge for the attack
// feature sizes used in this repository. Early stopping is off by default:
// validation accuracy can sit at chance for several epochs while the loss
// is still falling, and stopping there would under-train the attacker —
// the security evaluation needs the strongest classifier it can get.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 60, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5, Patience: 0}
}

// adamState holds per-parameter moments.
type adamState struct {
	m, v []float64
	t    int
}

// Train fits the network on train. Accuracy on val is measured after each
// epoch only when something reads it — early stopping (Patience > 0) or
// the Log callback; otherwise val is unused, and callers that want the
// trained network's validation accuracy ask Accuracy once.
//
// Optimization runs on the batched kernels: each minibatch is gathered
// into matrices and pushed through forwardBatch/backwardBatch, which
// stream every weight row once per minibatch instead of once per example.
// Gradient elements accumulate example contributions in the same
// order as the historical per-example loop, so for a fixed rng.Stream the
// final weights are bit-for-bit identical to the scalar path it replaced.
func (m *MLP) Train(r *rng.Stream, train, val []Example, cfg TrainConfig) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	nLayers := len(m.weights)

	// Gradient buffers and Adam state per layer.
	gw := make([]*dense, nLayers)
	gb := make([][]float64, nLayers)
	aw := make([]*adamState, nLayers)
	ab := make([]*adamState, nLayers)
	for l := range m.weights {
		gw[l] = newDense(m.weights[l].rows, m.weights[l].cols)
		gb[l] = make([]float64, len(m.biases[l]))
		aw[l] = &adamState{m: make([]float64, len(m.weights[l].w)), v: make([]float64, len(m.weights[l].w))}
		ab[l] = &adamState{m: make([]float64, len(m.biases[l])), v: make([]float64, len(m.biases[l]))}
	}
	batchSize := cfg.BatchSize
	if batchSize > len(train) && len(train) > 0 {
		batchSize = len(train)
	}
	bb := m.newBatch(batchSize)
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	bestVal := math.Inf(-1)
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for l := range gw {
				zero(gw[l].w)
				zero(gb[l])
			}
			rows := bb.load(m, train, order[start:end])
			m.forwardBatch(bb, rows)
			for bi := 0; bi < rows; bi++ {
				totalLoss += -logp[bi*outW+bb.labels[bi]]
			}
			m.backwardBatch(bb, rows, gw, gb)
			scale := 1 / float64(end-start)
			for l := range gw {
				adamStep(m.weights[l].w, gw[l].w, aw[l], cfg.LR, scale, cfg.WeightDecay)
				adamStep(m.biases[l], gb[l], ab[l], cfg.LR, scale, 0)
			}
		}
		if cfg.Patience <= 0 && cfg.Log == nil {
			continue
		}
		valAcc := 0.0
		if len(val) > 0 {
			correct := 0
			m.predictWithBatch(bb, val, func(i, pred int) {
				if pred == val[i].Y {
					correct++
				}
			})
			valAcc = float64(correct) / float64(len(val))
		}
		if cfg.Log != nil {
			cfg.Log(epoch, totalLoss/float64(len(train)), valAcc)
		}
		if valAcc > bestVal {
			bestVal = valAcc
			sinceBest = 0
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				break
			}
		}
	}
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// adamStep applies one Adam update to params given summed gradients and the
// batch scale factor. The bias-correction divisions are hoisted out of the
// element loop as reciprocals (lr/c1 and 1/√c2 are per-step constants), so
// each element costs one divide and one square root instead of three divides
// and a square root — the divider unit dominates this loop. The hoisted form
// rounds differently from the textbook lr·(m̂)/(√v̂+ε) in the last bits but
// is the same function of the same state, applied identically everywhere, so
// training remains fully deterministic for a fixed rng.Stream.
//
//maya:hotpath
func adamStep(params, grads []float64, st *adamState, lr, scale, decay float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	st.t++
	c1 := 1 - math.Pow(beta1, float64(st.t))
	c2 := 1 - math.Pow(beta2, float64(st.t))
	im := lr / c1
	isq := 1 / math.Sqrt(c2)
	mm := st.m[:len(params)]
	vv := st.v[:len(params)]
	gs := grads[:len(params)]
	for i, p := range params {
		g := gs[i]*scale + decay*p
		mi := beta1*mm[i] + (1-beta1)*g
		vi := beta2*vv[i] + (1-beta2)*g*g
		mm[i] = mi
		vv[i] = vi
		params[i] = p - im*mi/(math.Sqrt(vi)*isq+eps)
	}
}

// Accuracy returns the fraction of examples classified correctly. The
// forward passes run through the batched kernels.
func (m *MLP) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	m.predictBatches(examples, func(i, pred int) {
		if pred == examples[i].Y {
			correct++
		}
	})
	return float64(correct) / float64(len(examples))
}

// Split shuffles examples and divides them into train/validation/test sets
// with the paper's 60/20/20 proportions (§VI-A).
func Split(r *rng.Stream, examples []Example, trainFrac, valFrac float64) (train, val, test []Example) {
	if trainFrac <= 0 || valFrac < 0 || trainFrac+valFrac >= 1 {
		panic(fmt.Sprintf("nn: bad split fractions %g/%g", trainFrac, valFrac))
	}
	shuffled := append([]Example(nil), examples...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	n := len(shuffled)
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	return shuffled[:nTrain], shuffled[nTrain : nTrain+nVal], shuffled[nTrain+nVal:]
}

// ConfusionMatrix is row-normalized: Matrix[true][pred] is the fraction of
// class `true` examples predicted as `pred` (the format of Figs 6, 8, 9).
type ConfusionMatrix struct {
	Classes []string
	Matrix  [][]float64
	Counts  [][]int
}

// Confusion evaluates the model on examples and builds the matrix.
func Confusion(m *MLP, examples []Example, classes []string) *ConfusionMatrix {
	k := len(classes)
	cm := &ConfusionMatrix{Classes: classes}
	cm.Counts = make([][]int, k)
	cm.Matrix = make([][]float64, k)
	for i := 0; i < k; i++ {
		cm.Counts[i] = make([]int, k)
		cm.Matrix[i] = make([]float64, k)
	}
	m.predictBatches(examples, func(i, pred int) {
		cm.Counts[examples[i].Y][pred]++
	})
	for i := 0; i < k; i++ {
		total := 0
		for _, c := range cm.Counts[i] {
			total += c
		}
		if total == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			cm.Matrix[i][j] = float64(cm.Counts[i][j]) / float64(total)
		}
	}
	return cm
}

// AverageAccuracy returns the mean of the diagonal (the paper's headline
// metric: "averaging all the diagonal entries gives the overall average
// accuracy").
func (cm *ConfusionMatrix) AverageAccuracy() float64 {
	if len(cm.Matrix) == 0 {
		return 0
	}
	s := 0.0
	for i := range cm.Matrix {
		s += cm.Matrix[i][i]
	}
	return s / float64(len(cm.Matrix))
}

// String renders the matrix in the style of Fig 6. The rendering is built
// in a strings.Builder (the historical += concatenation reallocated the
// whole string O(k²) times) but stays byte-identical.
func (cm *ConfusionMatrix) String() string {
	var b strings.Builder
	b.Grow(16 + len(cm.Classes)*6 + len(cm.Matrix)*(10+len(cm.Classes)*6) + 32)
	b.WriteString("true\\pred")
	for j := range cm.Classes {
		fmt.Fprintf(&b, "%6d", j)
	}
	b.WriteByte('\n')
	for i, row := range cm.Matrix {
		fmt.Fprintf(&b, "%8d ", i)
		for _, v := range row {
			fmt.Fprintf(&b, "%6.2f", v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "average accuracy: %.1f%%\n", 100*cm.AverageAccuracy())
	return b.String()
}
