// Package svm holds the statistical classifier MARVEL's concept detection
// uses (§5.1): support vector machines with RBF or linear kernels, the
// deterministic synthetic models (Synthetic) that stand in for the
// paper's precomputed concept models, and a flat float32 model encoding
// so models can live in simulated main memory and be DMA'd to SPE
// kernels. The models' shapes are the ones §5.5 reports; their values
// are seeded, not fitted to data.
package svm

import (
	"fmt"
	"math"
)

// Kernel is an SVM kernel function over float32 feature vectors.
type Kernel interface {
	Eval(a, b []float32) float64
	String() string
}

// RBF is the Gaussian radial-basis kernel exp(-gamma * ||a-b||²).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBF) Eval(a, b []float32) float64 {
	var d2 float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Linear is the dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func (Linear) String() string { return "linear" }

// Model is a precomputed SVM for one semantic concept.
type Model struct {
	// Concept names the semantic concept this model detects.
	Concept string
	// Kernel evaluates similarity against support vectors.
	Kernel Kernel
	// SupportVectors holds the model's support vectors, all of equal
	// dimension.
	SupportVectors [][]float32
	// Coeffs holds alpha_i * y_i per support vector.
	Coeffs []float64
	// Bias is the decision-function offset b.
	Bias float64
}

// Validate checks structural consistency.
func (m *Model) Validate() error {
	if len(m.SupportVectors) == 0 {
		return fmt.Errorf("svm: model %q has no support vectors", m.Concept)
	}
	if len(m.Coeffs) != len(m.SupportVectors) {
		return fmt.Errorf("svm: model %q has %d coeffs for %d support vectors",
			m.Concept, len(m.Coeffs), len(m.SupportVectors))
	}
	dim := len(m.SupportVectors[0])
	for i, sv := range m.SupportVectors {
		if len(sv) != dim {
			return fmt.Errorf("svm: model %q support vector %d has dim %d, want %d",
				m.Concept, i, len(sv), dim)
		}
	}
	if m.Kernel == nil {
		return fmt.Errorf("svm: model %q has no kernel", m.Concept)
	}
	return nil
}

// Dim returns the feature dimension.
func (m *Model) Dim() int {
	if len(m.SupportVectors) == 0 {
		return 0
	}
	return len(m.SupportVectors[0])
}

// Decision evaluates the decision function f(x) = Σ coeff_i K(sv_i, x) + b.
func (m *Model) Decision(x []float32) float64 {
	if len(x) != m.Dim() {
		panic(fmt.Sprintf("svm: input dim %d, model %q wants %d", len(x), m.Concept, m.Dim()))
	}
	s := m.Bias
	for i, sv := range m.SupportVectors {
		s += m.Coeffs[i] * m.Kernel.Eval(sv, x)
	}
	return s
}
