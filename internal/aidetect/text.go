// Package aidetect implements the platform's AI components: fake-text
// classification (§IV component 3) and fake-multimedia tamper detection
// (§IV component 2).
//
// The paper defers to external deep models (TI-CNN, TensorFlow deepfake
// detectors); offline we implement two classical classifiers from scratch —
// multinomial naive Bayes and logistic regression over hashed bag-of-words
// plus hand features (the §I negative-emotion signal) — which exercise the
// same integration path: an AI score feeding the blockchain crowd-sourced
// ranking. Experiment E11 reports their accuracy and the emotion-only
// ablation.
package aidetect

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/corpus"
)

// Errors returned by this package.
var (
	// ErrNotTrained indicates Score before Train.
	ErrNotTrained = errors.New("aidetect: classifier not trained")
	// ErrNoData indicates an empty training set.
	ErrNoData = errors.New("aidetect: empty training set")
)

// ngrams returns unigrams plus adjacent word bigrams. Bigrams are what
// expose the paper's mixing/merging operators: a spliced statement is
// locally fluent but crosses phrase boundaries that never co-occur in
// factual text.
func ngrams(text string) []string {
	toks := corpus.Tokenize(text)
	// Map numeric tokens to digit-count shape classes so magnitudes
	// generalize (a distorted "7341" shares the "#num4" token with every
	// other 4-digit figure instead of being an unseen singleton).
	shaped := make([]string, len(toks))
	for i, t := range toks {
		if t[0] >= '0' && t[0] <= '9' {
			shaped[i] = fmt.Sprintf("#num%d", len(t))
			continue
		}
		shaped[i] = t
	}
	out := make([]string, 0, len(shaped)*2)
	out = append(out, shaped...)
	for i := 1; i < len(shaped); i++ {
		out = append(out, shaped[i-1]+"_"+shaped[i])
	}
	return out
}

// TextClassifier scores text for fakeness in [0,1].
type TextClassifier interface {
	// Train fits the model on labelled statements.
	Train(items []corpus.Statement) error
	// Score returns the probability that text is fake.
	Score(text string) (float64, error)
}

// ---------------------------------------------------------------------------
// Multinomial naive Bayes.
// ---------------------------------------------------------------------------

// NaiveBayes is a multinomial naive Bayes text classifier with Laplace
// smoothing.
type NaiveBayes struct {
	vocab      map[string]int
	fakeCount  map[string]int
	realCount  map[string]int
	fakeTokens int
	realTokens int
	fakeDocs   int
	realDocs   int
	trained    bool
}

var _ TextClassifier = (*NaiveBayes)(nil)

// NewNaiveBayes creates an untrained classifier.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{
		vocab:     make(map[string]int),
		fakeCount: make(map[string]int),
		realCount: make(map[string]int),
	}
}

// Train implements TextClassifier.
func (nb *NaiveBayes) Train(items []corpus.Statement) error {
	if len(items) == 0 {
		return ErrNoData
	}
	for _, s := range items {
		toks := ngrams(s.Text)
		if s.IsFake() {
			nb.fakeDocs++
		} else {
			nb.realDocs++
		}
		for _, t := range toks {
			nb.vocab[t]++
			if s.IsFake() {
				nb.fakeCount[t]++
				nb.fakeTokens++
			} else {
				nb.realCount[t]++
				nb.realTokens++
			}
		}
	}
	if nb.fakeDocs == 0 || nb.realDocs == 0 {
		return errors.New("aidetect: training set needs both classes")
	}
	nb.trained = true
	return nil
}

// Score implements TextClassifier.
func (nb *NaiveBayes) Score(text string) (float64, error) {
	if !nb.trained {
		return 0, ErrNotTrained
	}
	toks := ngrams(text)
	v := float64(len(nb.vocab))
	logFake := math.Log(float64(nb.fakeDocs) / float64(nb.fakeDocs+nb.realDocs))
	logReal := math.Log(float64(nb.realDocs) / float64(nb.fakeDocs+nb.realDocs))
	for _, t := range toks {
		logFake += math.Log((float64(nb.fakeCount[t]) + 1) / (float64(nb.fakeTokens) + v))
		logReal += math.Log((float64(nb.realCount[t]) + 1) / (float64(nb.realTokens) + v))
	}
	// Convert to P(fake|text) with the log-sum-exp trick.
	m := math.Max(logFake, logReal)
	pf := math.Exp(logFake - m)
	pr := math.Exp(logReal - m)
	return pf / (pf + pr), nil
}

// ---------------------------------------------------------------------------
// Logistic regression over hashed bag-of-words + hand features.
// ---------------------------------------------------------------------------

// hashDim is the hashed bag-of-words dimensionality.
const hashDim = 1 << 12

// handFeatures is the number of engineered features appended after the
// hashed words: emotion score, token count (scaled), digit share, bias.
const handFeatures = 4

// LogisticRegression is an L2-regularized logistic classifier trained by
// multi-epoch SGD over a deterministically shuffled order.
type LogisticRegression struct {
	// Epochs is the number of SGD passes (default 12).
	Epochs int
	// LearnRate is the SGD step (default 0.2).
	LearnRate float64
	// L2 is the regularization strength (default 1e-4).
	L2 float64

	weights []float64
	trained bool
}

var _ TextClassifier = (*LogisticRegression)(nil)

// NewLogisticRegression creates an untrained model with defaults.
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{Epochs: 12, LearnRate: 0.2, L2: 1e-4}
}

// fnv32 hashes a token into the feature space.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// sparseVec is a feature vector sorted by strictly increasing index.
// Dot products sum in index order, so a score is a pure function of the
// text and the weights: every node that trains on the same corpus gets
// the same bits.
type sparseVec struct {
	idx []int
	val []float64
}

// dot returns w·v, summed in index order.
func (v sparseVec) dot(w []float64) float64 {
	var z float64
	for k, i := range v.idx {
		z += w[i] * v.val[k]
	}
	return z
}

// features extracts the sparse feature vector of text: the term
// frequencies of its hashed unigrams and bigrams, then the emotion,
// length, digit-share and bias features at hashDim and above.
func features(text string) sparseVec {
	grams := ngrams(text)
	toks := corpus.Tokenize(text)
	hashes := make([]int, len(grams))
	for i, t := range grams {
		hashes[i] = int(fnv32(t) % hashDim)
	}
	slices.Sort(hashes)
	v := sparseVec{
		idx: make([]int, 0, len(hashes)+handFeatures),
		val: make([]float64, 0, len(hashes)+handFeatures),
	}
	// Merge runs of equal hashes into normalized term counts.
	for start := 0; start < len(hashes); {
		end := start + 1
		for end < len(hashes) && hashes[end] == hashes[start] {
			end++
		}
		v.idx = append(v.idx, hashes[start])
		v.val = append(v.val, float64(end-start)/float64(len(grams)))
		start = end
	}
	digits := 0
	for _, t := range toks {
		if t[0] >= '0' && t[0] <= '9' {
			digits++
		}
	}
	v.idx = append(v.idx, hashDim+0, hashDim+1)
	v.val = append(v.val, corpus.EmotionScore(text), math.Min(float64(len(toks))/40, 1))
	if len(toks) > 0 {
		v.idx = append(v.idx, hashDim+2)
		v.val = append(v.val, float64(digits)/float64(len(toks)))
	}
	v.idx = append(v.idx, hashDim+3)
	v.val = append(v.val, 1) // bias
	return v
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train implements TextClassifier. Each statement's features are
// extracted once; the SGD epochs then run over those vectors.
func (lr *LogisticRegression) Train(items []corpus.Statement) error {
	if len(items) == 0 {
		return ErrNoData
	}
	if lr.Epochs <= 0 {
		lr.Epochs = 12
	}
	if lr.LearnRate <= 0 {
		lr.LearnRate = 0.2
	}
	vecs := make([]sparseVec, len(items))
	for i, s := range items {
		vecs[i] = features(s.Text)
	}
	lr.weights = make([]float64, hashDim+handFeatures)
	// SGD must not see the items in a class-sorted order (the tail class
	// would dominate the final weights), so shuffle deterministically.
	rng := rand.New(rand.NewSource(42))
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < lr.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		rate := lr.LearnRate / (1 + float64(epoch)*0.3)
		for _, idx := range order {
			v := vecs[idx]
			y := 0.0
			if items[idx].IsFake() {
				y = 1.0
			}
			g := sigmoid(v.dot(lr.weights)) - y
			for k, i := range v.idx {
				lr.weights[i] -= rate * (g*v.val[k] + lr.L2*lr.weights[i])
			}
		}
	}
	lr.trained = true
	return nil
}

// Score implements TextClassifier.
func (lr *LogisticRegression) Score(text string) (float64, error) {
	if !lr.trained {
		return 0, ErrNotTrained
	}
	return sigmoid(features(text).dot(lr.weights)), nil
}

// ---------------------------------------------------------------------------
// Emotion-lexicon-only baseline (ablation for E11).
// ---------------------------------------------------------------------------

// EmotionOnly scores by the negative-emotion lexicon alone; Train fits a
// single threshold scale. It is the "no machine learning" ablation.
type EmotionOnly struct {
	scale   float64
	trained bool
}

var _ TextClassifier = (*EmotionOnly)(nil)

// NewEmotionOnly creates the baseline.
func NewEmotionOnly() *EmotionOnly { return &EmotionOnly{} }

// Train implements TextClassifier: it sets the scale so the mean fake
// emotion score maps to ~0.73.
func (e *EmotionOnly) Train(items []corpus.Statement) error {
	if len(items) == 0 {
		return ErrNoData
	}
	var sum float64
	n := 0
	for _, s := range items {
		if s.IsFake() {
			sum += corpus.EmotionScore(s.Text)
			n++
		}
	}
	if n == 0 || sum == 0 {
		e.scale = 10
	} else {
		e.scale = 1 / (sum / float64(n))
	}
	e.trained = true
	return nil
}

// Score implements TextClassifier.
func (e *EmotionOnly) Score(text string) (float64, error) {
	if !e.trained {
		return 0, ErrNotTrained
	}
	return math.Min(corpus.EmotionScore(text)*e.scale, 1), nil
}
