package topogen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"yardstick/internal/netmodel"
)

// generatorGolden pins the sha256 of EncodeJSON for each generated
// family. The hashes were recorded with the whole-network worklist
// simulator that per-prefix convergence replaced, so they hold the
// generators, the control plane and the rule-ID order to that output
// byte for byte.
var generatorGolden = map[string]string{
	"example":     "6120cd69c9556913a36725df89975a844489a68337fc2eba2a3ebf637fa8517a",
	"example-bug": "5e0bba44fcfcfcd968c9b0d5ba1c6c7b7c5108d0159ae790d5326bcf588c5df7",
	"regional":    "779c7f034f4873932d712b5eb6208a2e70e4c86e3e6ec795b3a541281e738215",
	"regional-v6": "42a72d577f4d355c9bdaa6e7d955f94c7a3a59ced968c513ac38d75990065b52",
	"regional-m":  "f63cfc7ec0a46733764838b28c5bba4d84dfc781c107069a0f1f6a7acf042dbc",
	"fattree-4":   "5a6caa527eadf78d68bb9a244460b69ea3e9ef168c94334c5e18eff9c335af00",
	"fattree-6":   "475a97a2b040080ee46c04a06990021812e2b991d63f514f22e7268b494561c8",
	"fattree-8":   "15722738f9d89e883b4a2cc5b3e1429356ff3c38a613ce5be812060216790665",
	"fattree-10":  "b21198795d2f6b66ee79370291a2e10fa86482bcdf6db85f004ef751ebeb1504",
}

func TestGeneratorGolden(t *testing.T) {
	build := map[string]func() (*netmodel.Network, error){
		"example": func() (*netmodel.Network, error) {
			ex, err := BuildExample(ExampleOpts{})
			return exampleNet(ex, err)
		},
		"example-bug": func() (*netmodel.Network, error) {
			ex, err := BuildExample(ExampleOpts{BugNullRoute: true})
			return exampleNet(ex, err)
		},
		"regional": func() (*netmodel.Network, error) {
			return regionalNet(BuildRegional(RegionalOpts{}))
		},
		"regional-v6": func() (*netmodel.Network, error) {
			return regionalNet(BuildRegional(RegionalOpts{IPv6: true}))
		},
		"regional-m": func() (*netmodel.Network, error) {
			return regionalNet(BuildRegional(RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8}))
		},
	}
	for _, k := range []int{4, 6, 8, 10} {
		k := k
		build[fmt.Sprintf("fattree-%d", k)] = func() (*netmodel.Network, error) {
			ft, err := BuildFatTree(k)
			if err != nil {
				return nil, err
			}
			return ft.Net, nil
		}
	}
	for name, want := range generatorGolden {
		t.Run(name, func(t *testing.T) {
			n, err := build[name]()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := n.EncodeJSON(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("EncodeJSON sha256 = %s, want %s", got, want)
			}
		})
	}
}

func exampleNet(ex *Example, err error) (*netmodel.Network, error) {
	if err != nil {
		return nil, err
	}
	return ex.Net, nil
}

func regionalNet(rg *Regional, err error) (*netmodel.Network, error) {
	if err != nil {
		return nil, err
	}
	return rg.Net, nil
}
