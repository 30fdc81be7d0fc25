package svm_test

import (
	"fmt"
	"log"

	"cellport/internal/features"
	"cellport/internal/img"
	"cellport/internal/svm"
)

// family synthesizes an image whose brightness is biased by class.
func family(seed uint64, bright bool) *img.RGB {
	im := img.Synthesize(seed, 96, 72)
	// Bias the scene: brighten or darken every pixel.
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			if bright {
				im.Set(x, y, lift(r), lift(g), lift(b))
			} else {
				im.Set(x, y, r/3, g/3, b/3)
			}
		}
	}
	return im
}

func lift(v byte) byte {
	n := int(v) + 120
	if n > 255 {
		n = 255
	}
	return byte(n)
}

// ExampleTrain is MARVEL's "short training phase" (§5.1) — build concept models
// from labeled examples, then use them for detection, with both available
// classification methods (SVM via SMO, and kNN, §5.1's alternatives).
//
// The flow: extract color histograms from two synthetic image families
// ("bright scenes" vs "dark scenes"), train an SVM on them, verify it
// separates held-out images, encode the model to the flat format the SPE
// detection kernel streams, and confirm the decoded model agrees.
func ExampleTrain() {
	// 1. Extract features from labeled examples.
	var x [][]float32
	var y []int
	const perClass = 12
	for i := 0; i < perClass; i++ {
		x = append(x, features.ColorHistogram(family(uint64(i)+1, true)))
		y = append(y, 1)
		x = append(x, features.ColorHistogram(family(uint64(i)+100, false)))
		y = append(y, -1)
	}
	fmt.Printf("training set: %d examples, dim %d (166-bin HSV histogram)\n", len(x), len(x[0]))

	// 2. Train the SVM (the paper's chosen classifier).
	model, err := svm.Train("bright-scene", x, y, svm.RBF{Gamma: 8}, svm.DefaultTrainConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SMO converged: %d support vectors, bias %+.4f\n",
		len(model.SupportVectors), model.Bias)

	// 3. And the kNN alternative (§5.1 lists both).
	knn, err := svm.NewKNN("bright-scene", 5, x, y)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Held-out evaluation.
	correctSVM, correctKNN, total := 0, 0, 0
	for i := 0; i < 8; i++ {
		for _, bright := range []bool{true, false} {
			f := features.ColorHistogram(family(uint64(1000+i*7), bright))
			want := bright
			if model.Classify(f) == want {
				correctSVM++
			}
			if knn.Classify(f) == want {
				correctKNN++
			}
			total++
		}
	}
	fmt.Printf("held-out accuracy: SVM %d/%d, kNN %d/%d\n", correctSVM, total, correctKNN, total)
	if correctSVM < total*3/4 {
		log.Fatalf("SVM accuracy too low: %d/%d", correctSVM, total)
	}

	// 5. Encode for main-memory placement (what the SPE detection kernel
	//    streams) and verify the decoded model agrees.
	enc, err := svm.Encode(model)
	if err != nil {
		log.Fatal(err)
	}
	dec, err := svm.Decode("bright-scene", enc)
	if err != nil {
		log.Fatal(err)
	}
	probe := features.ColorHistogram(family(31337, true))
	fmt.Printf("encoded model: %d float32 words (%.1f KB)\n", len(enc), float64(len(enc))*4/1024)
	fmt.Printf("decision original %+.5f vs decoded %+.5f\n", model.Decision(probe), dec.Decision(probe))
	fmt.Println("model ready for PlaceModel + the ConceptDet SPE kernel")
	// Output:
	// training set: 24 examples, dim 166 (166-bin HSV histogram)
	// SMO converged: 24 support vectors, bias -0.0185
	// held-out accuracy: SVM 13/16, kNN 12/16
	// encoded model: 4012 float32 words (15.7 KB)
	// decision original +0.01537 vs decoded +0.01537
	// model ready for PlaceModel + the ConceptDet SPE kernel
}
