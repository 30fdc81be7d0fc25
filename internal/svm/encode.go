package svm

import (
	"fmt"
	"math"
	"slices"
)

// Flat float32 model encoding, so precomputed models can be placed in
// simulated main memory and DMA'd into SPE local stores in 16 KB pieces.
// Layout (all float32):
//
//	[0] numSV  [1] dim  [2] bias  [3] gamma (0 = linear kernel)
//	[4 : 4+numSV]                coefficients
//	[4+numSV : 4+numSV+numSV*dim] support vectors, row-major
const encodeHeader = 4

// EncodedLen returns the float32 count of a model with the given shape.
func EncodedLen(numSV, dim int) int { return encodeHeader + numSV + numSV*dim }

// Encode flattens the model. Only RBF and Linear kernels are encodable.
func Encode(m *Model) ([]float32, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	gamma := 0.0
	switch k := m.Kernel.(type) {
	case RBF:
		if k.Gamma <= 0 {
			return nil, fmt.Errorf("svm: cannot encode RBF with gamma %g", k.Gamma)
		}
		gamma = k.Gamma
	case Linear:
	default:
		return nil, fmt.Errorf("svm: cannot encode kernel %v", m.Kernel)
	}
	n, dim := len(m.SupportVectors), m.Dim()
	out := make([]float32, 0, EncodedLen(n, dim))
	out = append(out, float32(n), float32(dim), float32(m.Bias), float32(gamma))
	for _, c := range m.Coeffs {
		out = append(out, float32(c))
	}
	for _, sv := range m.SupportVectors {
		out = append(out, sv...)
	}
	return out, nil
}

// Decode reconstructs a model from its flat encoding.
func Decode(concept string, data []float32) (*Model, error) {
	if len(data) < encodeHeader {
		return nil, fmt.Errorf("svm: encoded model too short (%d)", len(data))
	}
	n, dim := int(data[0]), int(data[1])
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("svm: encoded model shape %dx%d invalid", n, dim)
	}
	if want := EncodedLen(n, dim); len(data) != want {
		return nil, fmt.Errorf("svm: encoded model length %d, want %d for %dx%d", len(data), want, n, dim)
	}
	m := &Model{Concept: concept, Bias: float64(data[2])}
	if g := float64(data[3]); g > 0 {
		m.Kernel = RBF{Gamma: g}
	} else {
		m.Kernel = Linear{}
	}
	coeffs := data[encodeHeader : encodeHeader+n]
	m.Coeffs = make([]float64, n)
	for i, c := range coeffs {
		m.Coeffs[i] = float64(c)
	}
	m.SupportVectors = rowsOf(slices.Clone(data[encodeHeader+n:]), n, dim)
	return m, m.Validate()
}

// rowsOf slices flat into n rows of dim values each. Every row's
// capacity ends at its last value, so an append to one row cannot write
// into the next.
func rowsOf(flat []float32, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// Synthetic constructs a deterministic model with exactly numSV support
// vectors of the given dimension — the stand-in for MARVEL's precomputed
// concept models whose sizes §5.5 reports (186/225/210/255 vectors).
// Support vectors are unit-L1 random histogram-like vectors; coefficients
// alternate sign and are bounded; the bias centers typical decisions near
// zero so both classification outcomes occur.
func Synthetic(concept string, seed uint64, numSV, dim int, gamma float64) *Model {
	if numSV <= 0 || dim <= 0 {
		panic(fmt.Sprintf("svm: invalid synthetic shape %dx%d", numSV, dim))
	}
	s := seed | 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1_000_003) / 1_000_003.0
	}
	m := &Model{Concept: concept, Kernel: RBF{Gamma: gamma},
		SupportVectors: rowsOf(make([]float32, numSV*dim), numSV, dim),
		Coeffs:         make([]float64, numSV)}
	for i, sv := range m.SupportVectors {
		var sum float64
		for d := range sv {
			v := math.Pow(next(), 3) // sparse-ish, like real histograms
			sv[d] = float32(v)
			sum += v
		}
		if sum > 0 {
			for d := range sv {
				sv[d] = float32(float64(sv[d]) / sum)
			}
		}
		coeff := 0.5 + next()
		if i%2 == 1 {
			coeff = -coeff
		}
		m.Coeffs[i] = coeff
	}
	m.Bias = next() - 0.5
	return m
}
