package nn

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
)

// This file keeps the pre-batching per-example training path alive as a
// test-only reference: the batched kernels replaced it in production, and
// these tests pin the replacement to be bit-for-bit identical on a fixed
// seed, not merely close.

// scalarBackward is the historical per-example gradient accumulation.
func scalarBackward(m *MLP, ex Example, acts, deltas [][]float64, gw []*dense, gb [][]float64) {
	L := len(m.weights)
	out := acts[L]
	dOut := deltas[L]
	for j := range dOut {
		p := math.Exp(out[j])
		if j == ex.Y {
			p -= 1
		}
		dOut[j] = p
	}
	for l := L - 1; l >= 0; l-- {
		w := m.weights[l]
		in := acts[l]
		d := deltas[l+1]
		g := gw[l]
		for i := 0; i < w.rows; i++ {
			xi := in[i]
			if xi == 0 {
				continue
			}
			row := g.w[i*w.cols : (i+1)*w.cols]
			for j := range row {
				row[j] += xi * d[j]
			}
		}
		bg := gb[l]
		for j := range bg {
			bg[j] += d[j]
		}
		if l == 0 {
			break
		}
		dPrev := deltas[l]
		for i := 0; i < w.rows; i++ {
			if in[i] <= 0 {
				dPrev[i] = 0
				continue
			}
			row := w.w[i*w.cols : (i+1)*w.cols]
			s := 0.0
			for j, wv := range row {
				s += wv * d[j]
			}
			dPrev[i] = s
		}
	}
}

// scalarAccuracy is the historical per-example evaluation loop.
func scalarAccuracy(m *MLP, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	acts := m.newActs()
	for _, ex := range examples {
		m.forward(ex.X, acts)
		logp := acts[len(acts)-1]
		best := 0
		for i, v := range logp {
			if v > logp[best] {
				best = i
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// scalarTrain is the historical per-example training loop, kept verbatim
// (modulo the extracted backward/accuracy helpers above) as the reference
// for the batched Train. It validates every epoch and reports each epoch's
// loss and validation accuracy through cfg.Log when set.
func scalarTrain(m *MLP, r *rng.Stream, train, val []Example, cfg TrainConfig) {
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
	acts := m.newActs()
	deltas := make([][]float64, len(m.sizes))
	for i, s := range m.sizes {
		deltas[i] = make([]float64, s)
	}
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
			for _, idx := range order[start:end] {
				ex := train[idx]
				m.forward(ex.X, acts)
				logp := acts[len(acts)-1]
				totalLoss += -logp[ex.Y]
				scalarBackward(m, ex, acts, deltas, gw, gb)
			}
			scale := 1 / float64(end-start)
			for l := range gw {
				adamStep(m.weights[l].w, gw[l].w, aw[l], cfg.LR, scale, cfg.WeightDecay)
				adamStep(m.biases[l], gb[l], ab[l], cfg.LR, scale, 0)
			}
		}
		valAcc := scalarAccuracy(m, val)
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

// trainSets builds a dataset with both dense and exactly-zero features (the
// zero-skip path must agree between scalar and batched kernels), sized so
// the final minibatch is partial.
func trainSets(seed uint64, n, dim, classes int) (train, val []Example) {
	r := rng.New(seed)
	all := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			switch {
			case r.Float64() < 0.4:
				x[j] = 0 // exercise the sparsity skip
			default:
				x[j] = r.Normal(float64(i%classes), 1)
			}
		}
		all = append(all, Example{X: x, Y: i % classes})
	}
	cut := n * 3 / 4
	return all[:cut], all[cut:]
}

func TestBatchedTrainMatchesScalarBitForBit(t *testing.T) {
	const seed = 42
	train, val := trainSets(7, 70, 12, 3) // 52 train rows: one full batch of 32, one partial of 20
	cfg := TrainConfig{Epochs: 6, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5}

	// Both sides report every epoch's training loss and validation
	// accuracy through cfg.Log; the two per-epoch series must agree bit
	// for bit, not just their best value.
	type epochLog struct{ loss, val float64 }
	logTo := func(dst *[]epochLog) TrainConfig {
		c := cfg
		c.Log = func(_ int, loss, val float64) { *dst = append(*dst, epochLog{loss, val}) }
		return c
	}
	var logA, logB []epochLog
	a := NewMLP(rng.New(seed), 12, 16, 8, 3)
	b := NewMLP(rng.New(seed), 12, 16, 8, 3)
	a.Train(rng.New(seed+1), train, val, logTo(&logA))
	scalarTrain(b, rng.New(seed+1), train, val, logTo(&logB))

	if len(logA) != cfg.Epochs || len(logB) != cfg.Epochs {
		t.Fatalf("logged %d batched and %d scalar epochs, want %d", len(logA), len(logB), cfg.Epochs)
	}
	for e := range logA {
		if math.Float64bits(logA[e].loss) != math.Float64bits(logB[e].loss) ||
			math.Float64bits(logA[e].val) != math.Float64bits(logB[e].val) {
			t.Fatalf("epoch %d differs: batched loss %v val %v, scalar loss %v val %v",
				e, logA[e].loss, logA[e].val, logB[e].loss, logB[e].val)
		}
	}
	for l := range a.weights {
		for i, w := range a.weights[l].w {
			if w != b.weights[l].w[i] {
				t.Fatalf("layer %d weight %d differs: batched %x scalar %x",
					l, i, math.Float64bits(w), math.Float64bits(b.weights[l].w[i]))
			}
		}
		for j, bv := range a.biases[l] {
			if bv != b.biases[l][j] {
				t.Fatalf("layer %d bias %d differs: batched %x scalar %x",
					l, j, math.Float64bits(bv), math.Float64bits(b.biases[l][j]))
			}
		}
	}
}

func TestBatchedTrainMatchesScalarTinyBatches(t *testing.T) {
	// Batch size 1 degenerates the batched kernels to the scalar shape;
	// batch size larger than the dataset exercises the clamped buffer.
	train, val := trainSets(11, 13, 6, 2)
	for _, bs := range []int{1, 5, 64} {
		cfg := TrainConfig{Epochs: 3, BatchSize: bs, LR: 1e-2}
		a := NewMLP(rng.New(5), 6, 8, 2)
		b := NewMLP(rng.New(5), 6, 8, 2)
		a.Train(rng.New(6), train, val, cfg)
		scalarTrain(b, rng.New(6), train, val, cfg)
		for l := range a.weights {
			for i, w := range a.weights[l].w {
				if w != b.weights[l].w[i] {
					t.Fatalf("batch=%d: layer %d weight %d differs", bs, l, i)
				}
			}
		}
	}
}

func TestBatchedEvalMatchesScalar(t *testing.T) {
	// Accuracy and Confusion run on the batched forward; their per-example
	// decisions must match the scalar forward exactly, including across the
	// evalBatchSize boundary.
	r := rng.New(31)
	m := NewMLP(r, 9, 12, 4)
	var examples []Example
	for i := 0; i < evalBatchSize*2+17; i++ {
		x := make([]float64, 9)
		for j := range x {
			if r.Float64() < 0.3 {
				x[j] = 0
			} else {
				x[j] = r.NormFloat64()
			}
		}
		examples = append(examples, Example{X: x, Y: i % 4})
	}
	if got, want := m.Accuracy(examples), scalarAccuracy(m, examples); got != want {
		t.Fatalf("batched accuracy %v, scalar %v", got, want)
	}
	var batched []int
	m.predictBatches(examples, func(i, pred int) { batched = append(batched, pred) })
	for i, ex := range examples {
		if p := m.Predict(ex.X); p != batched[i] {
			t.Fatalf("example %d: batched pred %d, scalar pred %d", i, batched[i], p)
		}
	}
}

func TestConfusionStringGolden(t *testing.T) {
	cm := &ConfusionMatrix{
		Classes: []string{"a", "b", "c"},
		Matrix: [][]float64{
			{0.9, 0.1, 0},
			{0.25, 0.5, 0.25},
			{0, 0, 1},
		},
	}
	want := "true\\pred     0     1     2\n" +
		"       0   0.90  0.10  0.00\n" +
		"       1   0.25  0.50  0.25\n" +
		"       2   0.00  0.00  1.00\n" +
		"average accuracy: 80.0%\n"
	if got := cm.String(); got != want {
		t.Fatalf("rendering changed:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: batched vs scalar kernels on an attack-shaped network (dense
// 2400-dim features — the production QuantizedWindows/FFT feature width for
// the default 24000-tick traces — with the default 64/32 hidden layers and
// 11 classes). Dense features are the worst case for the scalar path: it
// re-streams the full first-layer weight matrix for every example, where the
// batched kernel streams it once per minibatch. Model initialization runs
// outside the timer: the benchmarks measure training epochs, and the init
// cost is identical constant work on both sides.

const (
	benchDim     = 2400
	benchClasses = 11
)

func benchData(b *testing.B) ([]Example, []Example) {
	b.Helper()
	r := rng.New(77)
	mk := func(n int) []Example {
		out := make([]Example, n)
		for i := range out {
			x := make([]float64, benchDim)
			for j := range x {
				x[j] = r.Float64()
			}
			out[i] = Example{X: x, Y: i % benchClasses}
		}
		return out
	}
	return mk(256), mk(64)
}

func benchCfg() TrainConfig {
	return TrainConfig{Epochs: 2, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5}
}

func benchTrain(b *testing.B, train, val []Example, fit func(*MLP)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
		b.StartTimer()
		fit(m)
	}
}

func BenchmarkTrainBatched(b *testing.B) {
	train, val := benchData(b)
	benchTrain(b, train, val, func(m *MLP) {
		m.Train(rng.New(2), train, val, benchCfg())
	})
}

func BenchmarkTrainScalar(b *testing.B) {
	train, val := benchData(b)
	benchTrain(b, train, val, func(m *MLP) {
		scalarTrain(m, rng.New(2), train, val, benchCfg())
	})
}

func BenchmarkAccuracyBatched(b *testing.B) {
	train, _ := benchData(b)
	m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Accuracy(train)
	}
}

func BenchmarkAccuracyScalar(b *testing.B) {
	train, _ := benchData(b)
	m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarAccuracy(m, train)
	}
}
