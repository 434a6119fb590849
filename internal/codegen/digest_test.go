package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/codegen"
	"codelayout/internal/kernel"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

// TestImageDigestPinned pins one sha256 per built image over everything a
// run reads of it (codegen.Digest): every Fn, every decision annotation and
// the sealed step and jump tables, beside the program fingerprint. The images
// cover both appmodel shapes (expt's quick and paper scale) for every
// workload, a union image, a union whose second workload shares all its model
// names with the first, the fast-path image, and the kernel at two seeds. A
// generator change that moves one rng draw moves a digest here.
func TestImageDigestPinned(t *testing.T) {
	quick := func(w workload.Workload, extra ...workload.Workload) appmodel.Config {
		c := appmodel.DefaultConfig(2001, w.QuickScale())
		c.LibScale, c.ColdWords = 0.4, 900_000
		c.ExtraWorkloads = extra
		return c
	}
	upd := ycsb.New()
	upd.Label, upd.ReadPct = "ycsb-upd", 5
	fastPath := quick(tpcb.New())
	fastPath.FastPath = true

	app := func(c appmodel.Config) func() (*codegen.Image, error) {
		return func() (*codegen.Image, error) { return appmodel.Build(c) }
	}
	kern := func(seed int64) func() (*codegen.Image, error) {
		return func() (*codegen.Image, error) { return kernel.Build(kernel.DefaultConfig(seed)) }
	}
	cases := []struct {
		name  string
		build func() (*codegen.Image, error)
		want  string
	}{
		{"tpcb-quick", app(quick(tpcb.New())), "ba40591c559d6f5602303c437c2dc86cad0200fd92d93040563bad7774ff3765"},
		{"ordere-quick", app(quick(ordere.New())), "efced73ee31a442ad224f25d03e3f2fb1a52a102337890de8bc2074626d538af"},
		{"ycsb-quick", app(quick(ycsb.New())), "e1e4bd6b425beb2ff1d6af73a368d87d0983e38b49d43b8a9b4dcb0cfcd3b25e"},
		{"tpcb-paper", app(appmodel.DefaultConfig(2001, tpcb.New())), "11c95fa046537b078f414809bd2b116f52429aa55c16c0b99c58f08d380238e9"},
		{"ordere-paper", app(appmodel.DefaultConfig(2001, ordere.New())), "3f2255803900156ac48975537f1d1615c733267a870d17aa58235d28a061d6db"},
		{"ycsb-paper", app(appmodel.DefaultConfig(2001, ycsb.New())), "c81464e70087ea70142d690e526989849cf6e22a008050fb3fca6806aec0c5ed"},
		{"tpcb+ycsb-quick", app(quick(tpcb.New(), ycsb.New())), "9ac0646f5a9c2a84be75a3d14de794da641f6872512f9e2b18f9e5a4c5301238"},
		{"ycsb+ycsb-upd-quick", app(quick(ycsb.New(), upd)), "867f79a12c0377f4a76e3825e8360dd19c3314a5c5de9a877f6631804706f2c1"},
		{"tpcb-fastpath-quick", app(fastPath), "fd2ff97da75933263baf78224da93879c7e11395794db0a7032df2b6711ab89c"},
		{"kernel-2002", kern(2002), "9258438638430163c450eee64ce44130d82a7c8a4aa45a4ce3e0de09dae93c4a"},
		{"kernel-7920", kern(7920), "cd90c9385987254f3d98de6e94f5f3bfd493193440045c6bde3b050df8071d12"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			codegen.Digest(img, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("image digest = %s, want %s", got, tc.want)
			}
		})
	}
}
