package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// quickGolden pins the SHA-256 of every file `experiments -quick` writes.
// The CI determinism job only compares sequential output with parallel
// output, so without this table a schedule change in any scheduler lands
// silently until someone regenerates results/.
var quickGolden = map[string]string{
	"ablation.csv":        "b86a6d4cda1c83b4026eea96c9dc26d129656027b4f0e652b021f736440df57c",
	"adversary.csv":       "cfc87357633fdfbdb51a52cb418cd59cfcd65df80ca5be6b02d14b4e9fc8f9eb",
	"bounds.csv":          "a99ed6bf5e1530ec4b68750d3b32c22f7d106dd0c57524525625d4af529b8bc7",
	"distribution.csv":    "c6ec9a7bb6c65a1eb5a25f5eec6edc78cf29cbe9e9c1dd6c3b33260cdd53b6ec",
	"fig6.csv":            "00fb4e85547f602214805246cbde1b53c77921445ac3c2206803c8f0e44cd175",
	"fig6_cholesky.svg":   "ed5c5728f04febd7b35bd01558280e45c41019223a4de8b99561e67c835561f0",
	"fig6_lu.svg":         "7d7d5789a767c9313cc609619d6deba3a4cfc0d11f51ae6aeb29de9111d9cedb",
	"fig6_qr.svg":         "43ff7985eb2432242025db91476800d3fa56d53f40850c611678630cff40d136",
	"fig7.csv":            "e013ea6ac51f1f27ec5bc7f99091d4907560a6301f0353f74b7d1c51b9ebd5ec",
	"fig7_cholesky.svg":   "c47e4f9a5cb555463341217b5e1924b1d51bd44e5583368bb3be296247cfc51a",
	"fig7_lu.svg":         "fff211ebee3b60724e9bd82f476e3548391ebb5052af9455dab6cd12e0471690",
	"fig7_qr.svg":         "1a25734477194e5a328d9521d1c3fce986587b16a49a5feb97f79a9119dbbe70",
	"fig8.csv":            "4fd248ebdc25ccfe5674bc7311b556b625a5cbf62da9ee7ac15927e6818825f8",
	"fig8_cholesky.svg":   "38694bff33b84dcfb90814a1207d8e8b04196ff0a1c9ee6803782099d45735f8",
	"fig8_lu.svg":         "7b8e7194973580393d650db02ed1d8bce466c9751df254f211283dc61a69609d",
	"fig8_qr.svg":         "1ca264dd36248bb2c469362539f28a1add2e90c24e40247b236af094f772e469",
	"fig9.csv":            "0e0ec71c4946271671be5740f436b494592d285e9a384b84f8f0fe3ebdf68da5",
	"fig9_cholesky.svg":   "069c2e4c470ed8eb4171d648c99abd99b82a0ba126dd93bbca7ca988636ed955",
	"fig9_lu.svg":         "5a93058a2ed3475532ba9ebe1dc5e0b0f839b23535d64f9a3d322cf79c9273ee",
	"fig9_qr.svg":         "7fc6a25a7b7133bf2f8f0d1df095e8d82c3e8880e33f114179e2cf99da7204a5",
	"kernelmix.csv":       "33403ff5fcb3370fe5e59dcb50ca28c96c6561b25a55077a3a0abcea1cf1ee11",
	"robustness.csv":      "607f03dd06bf4349528a5407bc934a69e007ad196d0d6dd1b035179a6129e398",
	"shape.csv":           "a75dd224f9db3a97b681d496b5e832ca0b3fac7bf47d452beb17d28fd1916f9c",
	"table1.csv":          "8a4c5dceaa8aa998846a8402c87c4f9231fa0c4b510c5bc5df7c6fc5b5b9260a",
	"table2.csv":          "7fdd7578fee6a716402cda25135a28717d0e18141ddd2cfe04a4a008b47a3004",
	"tournament.csv":      "28c0ef7cee17469d43b93e03525ef6052bfad57fb4baa82d227f0bd73967bb92",
	"tournament_1c1g.svg": "42eb5e0b6a0f3430a48a470aff28b9389d5a098f47bb4a537ed9859ab8cd26e9",
	"tournament_4c1g.svg": "d1a2cdd6e78383e25abddd36666d531a6bedb1c48fdd5901f4e8270e37269d0d",
	"tournament_8c2g.svg": "2fe8dd5e1fe7ca4bc4f1c468a46d00a32b712b2dd6b1ec4755676dd4fffdf005",
	"tournament_wins.csv": "f05441257dd687a0ec3e0fcff68c713a0035d77a8f3e64eb108bfd297f39eac4",
	"transfer.csv":        "01c01d71df78727131adf9d8ed5bdd9b58291c5a76d0e820d649f2bd03c118ac",
}

func TestRunQuickGolden(t *testing.T) {
	dir := t.TempDir()
	if err := run("all", dir, true, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	names := make([]string, 0, len(got)+len(quickGolden))
	for name := range got {
		names = append(names, name)
	}
	for name := range quickGolden {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != quickGolden[name] {
			t.Errorf("%q: %q, (want %q)", name, got[name], quickGolden[name])
		}
	}
}
