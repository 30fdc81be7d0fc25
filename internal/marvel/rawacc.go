package marvel

import (
	"fmt"

	"cellport/internal/features"
)

// Raw accumulator encodings for data-parallel extraction: a partial
// (OpRunPartial) kernel invocation covers only a row range, so it cannot
// finalize (normalization needs global totals). Instead it emits its
// accumulator state as uint32 words, which the PPE merges across SPEs and
// finalizes — the extra "data parallelism across multiple SPEs" layer §2
// names beyond per-kernel task parallelism.
//
// All counts fit uint32 for the frame sizes in play: pixel counts and
// histogram counts are bounded by W×H (≤ a few hundred thousand),
// correlogram pair counts by W×H×17² (≈ 2.4e7 for 352×240), texture
// energies by 255×W×H (≈ 2.2e7).

// Raw word counts (uint32 units) used by the wrapper layout.
const (
	HistBinsU = uint32(features.HistBins)
	EdgeBinsU = uint32(features.EdgeBins)
	TexBinsU  = uint32(features.TexBins)
)

// encodeRaw serializes an accumulator into words (the kernel side).
func encodeRaw(acc Accumulator) []uint32 {
	switch a := acc.(type) {
	case *histAcc:
		out := make([]uint32, 0, HistBinsU+1)
		for _, c := range a.a.Counts {
			out = append(out, uint32(c))
		}
		return append(out, uint32(a.a.Pixels))
	case *corrAcc:
		out := make([]uint32, 0, 2*HistBinsU)
		for _, c := range a.a.Same {
			out = append(out, uint32(c))
		}
		for _, c := range a.a.Total {
			out = append(out, uint32(c))
		}
		return out
	case *edgeAcc:
		out := make([]uint32, 0, EdgeBinsU)
		for _, c := range a.a.Counts {
			out = append(out, uint32(c))
		}
		return out
	case *texAcc:
		out := make([]uint32, 0, TexBinsU+1)
		for _, e := range a.a.Energy {
			out = append(out, uint32(e))
		}
		return append(out, uint32(a.a.Pixels))
	default:
		panic(fmt.Sprintf("marvel: no raw encoding for %T", acc))
	}
}

// mergeRaw folds one partial result into the merger accumulator
// (the PPE side).
func mergeRaw(id KernelID, words []uint32, into Accumulator) error {
	if want := kernelOf(id).rawWords; uint32(len(words)) != want {
		return fmt.Errorf("marvel: raw %s payload has %d words, want %d", id, len(words), want)
	}
	switch a := into.(type) {
	case *histAcc:
		for i := range a.a.Counts {
			a.a.Counts[i] += uint64(words[i])
		}
		a.a.Pixels += uint64(words[HistBinsU])
	case *corrAcc:
		for i := range a.a.Same {
			a.a.Same[i] += uint64(words[i])
			a.a.Total[i] += uint64(words[uint32(i)+HistBinsU])
		}
	case *edgeAcc:
		for i := range a.a.Counts {
			a.a.Counts[i] += uint64(words[i])
		}
	case *texAcc:
		for i := range a.a.Energy {
			a.a.Energy[i] += uint64(words[i])
		}
		a.a.Pixels += uint64(words[TexBinsU])
	default:
		return fmt.Errorf("marvel: no raw merge for %T", into)
	}
	return nil
}
