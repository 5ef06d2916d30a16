package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"stemroot/internal/hwmodel"
	"stemroot/internal/workloads"
)

// profileWriteCSVGoldens are SHA-256 digests of Profile.WriteCSV for the six
// HuggingFace workloads at scale 0.1, seed 1, profiled on the rtx2080 —
// plan_batch's input — recorded when every time went through
// strconv.AppendFloat 'g' -1.
var profileWriteCSVGoldens = map[string]string{
	"bert":     "4ccd793139d208234d1dddc8a2e0b37eda12eb8c1702851fd7baa7903b796c29",
	"bloom":    "fa2d9429ab50d8cb824d6f3cf8e7bd88b6a929b1760127503ba206c467af503e",
	"deit":     "5fc555947fdbf2349413210d57943f89dffbd5e779c474e868de964c7c3c7ff3",
	"gemma":    "3d2b2965feaf7625c4c54c03e34dcabbf91bb41d0cd51c18149be6cc770678bd",
	"gpt2":     "f78f3f47cb285b6cee206ac7b3cf52d12129d4a3ccc55c3a11fc0fe186a6a3ce",
	"resnet50": "515f3d0b2e6fbdef3f9b7074c9b0e639697506b01e81974de919736869e92a56",
}

func TestProfileWriteCSVGoldens(t *testing.T) {
	ws, err := workloads.Suite(workloads.SuiteHuggingFace, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hwmodel.ByName("rtx2080")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(profileWriteCSVGoldens) {
		t.Errorf("%d workloads, %d recorded digests", len(ws), len(profileWriteCSVGoldens))
	}
	for _, w := range ws {
		h := sha256.New()
		if err := hwmodel.New(dev, w.Seed).Profile(w).WriteCSV(w, h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != profileWriteCSVGoldens[w.Name] {
			t.Errorf("%s (%d rows): sha256 %s, recorded %s", w.Name, w.Len(), got, profileWriteCSVGoldens[w.Name])
		}
	}
}
