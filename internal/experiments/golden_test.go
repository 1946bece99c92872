package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenBase is the suite base of the golden digests: small enough for
// the tier-1 suite, large enough that every experiment profiles,
// sweeps and renders real numbers.
const goldenBase = 20000

// goldenDigests pins the sha256 of every registry entry's rendered text
// (RenderText: what `paperrepro -base 20000 -out DIR` writes to
// DIR/<id>.txt) as produced before profiling hashed each path once. Any
// change to a kernel, a cache or a renderer that moves a single byte of
// any report fails here.
var goldenDigests = map[string]string{
	"ablation-adaptivity":   "dc5c5ac70ea46949ee8a23b77e0d07f992b8991cbb996b05f58d6e4705e3da10",
	"ablation-competitors":  "836822de69f27ab896942eb6364d760fc716e01d025732ac04d7a145d83ee741",
	"ablation-dynsel":       "b3bf55b40d4fec7f6946c467236ac50554d356037c384410980ee679a72f1d2d",
	"ablation-heuristic":    "8b2ec339714befe267e617eab51f676560e4b599de8cdee099b2b26f76f7e0ef",
	"ablation-hfnt":         "4a3cec786807e69b3f1da8a126d72891f11560eb917da07fff5bc2786bec59c8",
	"ablation-histstack":    "720ab52b01993746e0a4227b6a99fe8824cedf0ed8af0126c7e2611aebf02c57",
	"ablation-indfield":     "4518ba4a83dc4306440f35ed08568018aa71adf65acf8d81658e7b0557d3124b",
	"ablation-interference": "be06f691721c4a6bda7aaa8530b015ce92633866c7ae8c1de367a34b3f1a3cb4",
	"ablation-isabits":      "fd60cee1df4055bb652d4cdf85b315fdc5e036111359886f595084bb5db4af26",
	"ablation-pathinfo":     "9668dda1539011daf7ee235dcd807323c34eb08ae4a090ce5ee03c492a5584d6",
	"ablation-ras":          "3a0e328b3bb41659c3de683ff9b44727d5acaea63c4b41007fde0526ed83be99",
	"ablation-returns":      "fcfd421e10481469d34d00b396fcdeb9802cf672dec19a5c4e639cfd9f071440",
	"ablation-rotation":     "e2c1a5d4672c49912a835336f23a9089794b0c4a0b315f52e229738c1995b49c",
	"ablation-speedup":      "5695cf4e71615be1e3c3faed49e130d09412936289bb3562380abd8080fde641",
	"ablation-stability":    "e53631ec6943ba8f1ce6322a6bcab677ed986929c619ae9f991a064603b0310d",
	"ablation-subset":       "8b81ec0375b69847fb6ca7a90fdb9c6898811cca4ff7bf07a92e55f1b2ce99e0",
	"fig10":                 "94b8a2908bc9160fe0e2fe9d5dfddb63418c2b0b1ca136be79e79cb6d40bcc8a",
	"fig5":                  "166d3531316ea8a0600cf3e5e3be0066f2fbe34d340cb4ae497c48dc31c0d146",
	"fig6":                  "817f1b861e49cf9e09f558e8e0bd6889f8840ead861fccf0381accb6c67d8a04",
	"fig7":                  "f48f40bd9b870b17060dd3efa9fa2c67d24c63e26f1a7729ab7367dcec32ee5e",
	"fig8":                  "ae7f0aaefd788a104f5cd0783407ca10d55fb25abffe2e5c02a18778fcdb3382",
	"fig9":                  "3b60971009f9713135af47740e06ea01aec9e6e90fbc8578b2435957866875f5",
	"headline":              "93aaf07e8d0e906cc696e3eaac638e83159a800c1526bead7a77aaa94b6b6fbf",
	"table1":                "ee53beac98ae08eeb591657b2273869b42a306fc9fa49604905818f1b01840e4",
	"table2":                "795301f21500e1142436ab71f656a1e0a40aa17a12a53779f1418ff7e5371269",
	"table3":                "2434143461e7c8a1036b7acfdbca4aa64efa7a1df1ce57582a1dd18256b89c85",
}

// TestGoldenReports runs all registry entries through one suite at
// goldenBase and compares each rendered report with its pinned digest.
func TestGoldenReports(t *testing.T) {
	s := NewSuite(Config{BaseRecords: goldenBase})
	reg := Registry()
	if len(reg) != len(goldenDigests) {
		t.Errorf("registry has %d entries, %d digests pinned", len(reg), len(goldenDigests))
	}
	for _, e := range reg {
		rep, err := e.Run(s, context.Background())
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		sum := sha256.Sum256(RenderText(rep.Title, rep.Text))
		if got, want := hex.EncodeToString(sum[:]), goldenDigests[e.ID]; got != want {
			t.Errorf("%s: report digest %s, pinned %s", e.ID, got, want)
		}
	}
}
