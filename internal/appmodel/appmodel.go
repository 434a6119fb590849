// Package appmodel assembles the modeled application binary: one code model
// per instrumented engine routine (the models mirror, site for site, the
// probe calls in internal/db), the configured workload's transaction models
// (contributed through the workload seam), a deep library of auto helper
// functions that gives the image its OLTP-sized flat footprint, and a
// cold-code complement that brings the static image to database-binary
// proportions (the paper's Oracle binary is 27 MB with a ~260 KB hot
// footprint). The library, the cold code and the link order are
// codegen.Library's, the same recipe the kernel image is built from; this
// package holds only the layer table and the hand-written models.
//
// The conformance between these models and the engine's probe sequences is
// enforced at runtime — any drift panics inside codegen.Emitter — and
// covered by tests that execute full transactions against an emitter.
package appmodel

import (
	"fmt"

	"codelayout/internal/codegen"
	"codelayout/internal/isa"
	"codelayout/internal/predict"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// Config shapes the generated image.
type Config struct {
	// Seed drives all generation randomness.
	Seed int64
	// LibScale multiplies library function counts (1.0 = default sizing,
	// tuned so the hot footprint lands near the paper's ~260 KB).
	LibScale float64
	// ColdWords is the cold-code complement in instruction words.
	// The default models a 27 MB binary.
	ColdWords int
	// Workload contributes the transaction models rooted in the engine
	// models; required.
	Workload workload.Workload
	// ExtraWorkloads contributes additional workloads' transaction models
	// after Workload's, producing a union binary: one program covers every
	// listed mix, so a profile collected while running any of them maps
	// onto the same blocks — the portability the train/eval-mismatch
	// experiments need. Empty leaves the image bit-identical to the
	// single-workload build. Workloads duplicating Workload's name (or an
	// earlier extra's) are skipped.
	ExtraWorkloads []workload.Workload
	// FastPath adds the predictive fast-path decision models
	// (predict_check/predict_train) to the image, so machines running with
	// Config.PredictFastPath have modeled code to execute — and the layout
	// passes optimize the prediction path along with everything else. Off
	// leaves the image bit-identical to the pre-fast-path build.
	FastPath bool
}

// DefaultConfig returns the paper-calibrated image shape for a workload.
func DefaultConfig(seed int64, w workload.Workload) Config {
	return Config{Seed: seed, LibScale: 1.0, ColdWords: 6_400_000, Workload: w}
}

// libraryPlan is the application's library, bottom (leaf) first: utilities,
// latches, comparators, runtime, I/O, row formatting, services and the SQL
// layer, each layer's size multiplied by scale.
func libraryPlan(scale float64) []codegen.LibConfig {
	s := func(n int) int { return max(2, int(float64(n)*scale)) }
	return []codegen.LibConfig{
		{Prefix: "ut", N: s(150), MeanWords: 80},
		{Prefix: "lat", N: s(40), MeanWords: 25},
		{Prefix: "cmp", N: s(40), MeanWords: 30},
		{Prefix: "rt", N: s(150), MeanWords: 70, CallsPerFn: 2, PickWidth: 6, Pools: []string{"ut"}},
		{Prefix: "io", N: s(40), MeanWords: 60, CallsPerFn: 1, PickWidth: 4, Pools: []string{"ut"}},
		{Prefix: "row", N: s(80), MeanWords: 55, CallsPerFn: 1, PickWidth: 6, Pools: []string{"ut", "cmp"}},
		{Prefix: "sv", N: s(120), MeanWords: 65, CallsPerFn: 2, PickWidth: 6, Pools: []string{"rt"}},
		{Prefix: "sql", N: s(100), MeanWords: 60, CallsPerFn: 2, PickWidth: 8, Pools: []string{"sv", "rt"}},
	}
}

// Build assembles the application image for the configured workload.
func Build(cfg Config) (*codegen.Image, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("appmodel: Config.Workload is required")
	}
	if cfg.LibScale == 0 {
		cfg.LibScale = 1.0
	}
	lib := codegen.NewLibrary(cfg.Seed, libraryPlan(cfg.LibScale))
	pick, errPath := lib.Pick, lib.ErrPath

	// Engine routine models. Each mirrors the probe sequence of the
	// matching internal/db routine.
	engine := []codegen.FnSpec{
		{Name: "buf_get", Body: []codegen.Frag{
			codegen.Seq(6), errPath(), pick("lat", 4),
			codegen.If{Site: "buf_hit",
				Then: []codegen.Frag{codegen.Seq(5), pick("ut", 4)},
				Else: []codegen.Frag{codegen.Seq(9), pick("io", 4), codegen.Seq(14)}},
			codegen.Seq(4),
		}},
		{Name: "lock_acquire", Body: []codegen.Frag{
			codegen.Seq(7), pick("lat", 4),
			codegen.Loop{Site: "lock_conflict", Head: 3,
				Body: []codegen.Frag{codegen.Seq(9), pick("sv", 4)}},
			codegen.Seq(3),
		}},
		{Name: "lock_release", Body: []codegen.Frag{
			codegen.Seq(5),
			codegen.Loop{Site: "lockrel_iter", Head: 2,
				Body: []codegen.Frag{codegen.Seq(6), pick("lat", 4)}},
			codegen.Seq(2),
		}},
		{Name: "log_append", Body: []codegen.Frag{
			codegen.Seq(6), errPath(), pick("rt", 4),
			codegen.If{Site: "logbuf_high", Then: []codegen.Frag{codegen.Seq(7)}},
			codegen.Seq(4),
		}},
		{Name: "log_flush", Body: []codegen.Frag{
			codegen.Seq(5),
			codegen.Loop{Site: "log_retry", Head: 3, Body: []codegen.Frag{
				codegen.If{Site: "log_leader",
					Then: []codegen.Frag{codegen.Seq(10), pick("io", 4)},
					Else: []codegen.Frag{codegen.Seq(6), pick("sv", 4)}},
			}},
			codegen.Seq(3),
		}},
		{Name: "txn_begin", Body: []codegen.Frag{
			codegen.Seq(8), pick("rt", 4), codegen.Seq(4),
		}},
		{Name: "txn_commit", Body: []codegen.Frag{
			codegen.Seq(6),
			codegen.Call{Fn: "log_append"},
			codegen.Call{Fn: "log_flush"},
			codegen.Call{Fn: "lock_release"},
			codegen.Seq(5),
		}},
		{Name: "txn_prepare", Body: []codegen.Frag{
			codegen.Seq(6), pick("rt", 4),
			codegen.Call{Fn: "log_append"},
			codegen.Call{Fn: "log_flush"},
			codegen.Seq(3),
		}},
		{Name: "txn_resolve", Body: []codegen.Frag{
			codegen.Seq(5), pick("rt", 4),
			codegen.Call{Fn: "log_append"},
			codegen.Call{Fn: "lock_release"},
			codegen.Seq(3),
		}},
		{Name: "txn_abort", Body: []codegen.Frag{
			codegen.Seq(6),
			codegen.Loop{Site: "undo_iter", Head: 2,
				Body: []codegen.Frag{codegen.Seq(8), pick("rt", 4)}},
			codegen.Call{Fn: "log_append"},
			codegen.Call{Fn: "lock_release"},
			codegen.Seq(3),
		}},
		{Name: "heap_insert", Body: []codegen.Frag{
			codegen.Seq(6),
			codegen.If{Site: "heap_newpage", Then: []codegen.Frag{codegen.Seq(9), pick("sv", 4)}},
			codegen.Call{Fn: "buf_get"},
			codegen.Seq(5),
			codegen.Call{Fn: "log_append"},
			codegen.Seq(6), pick("row", 5),
		}},
		{Name: "heap_fetch", Body: []codegen.Frag{
			codegen.Seq(5),
			codegen.Call{Fn: "buf_get"},
			codegen.Seq(4), pick("row", 5),
		}},
		{Name: "heap_update", Body: []codegen.Frag{
			codegen.Seq(5), errPath(),
			codegen.Call{Fn: "buf_get"},
			codegen.Seq(6),
			codegen.Call{Fn: "log_append"},
			codegen.Seq(7), pick("row", 5),
		}},
		{Name: "bt_search", Body: []codegen.Frag{
			codegen.Seq(6), errPath(), pick("cmp", 4),
			codegen.Loop{Site: "bt_descend", Head: 3, Body: []codegen.Frag{
				codegen.Call{Fn: "buf_get"},
				codegen.Seq(4),
				codegen.Loop{Site: "bt_scan", Head: 2, Body: []codegen.Frag{codegen.Seq(5)}},
				codegen.Seq(3),
			}},
			codegen.Call{Fn: "buf_get"},
			codegen.Seq(3),
			codegen.Loop{Site: "bt_leaf", Head: 2, Body: []codegen.Frag{codegen.Seq(5)}},
			codegen.If{Site: "bt_found",
				Then: []codegen.Frag{codegen.Seq(5)},
				Else: []codegen.Frag{codegen.Seq(3)}},
			codegen.Seq(2),
		}},
		{Name: "bt_insert", Body: []codegen.Frag{
			codegen.Seq(8), pick("cmp", 4),
			codegen.If{Site: "bt_grow", Then: []codegen.Frag{codegen.Seq(12)}},
			codegen.Seq(3),
		}},
		{Name: "bt_range", Body: []codegen.Frag{
			codegen.Seq(6), errPath(), pick("cmp", 4),
			codegen.Loop{Site: "btr_descend", Head: 3, Body: []codegen.Frag{
				codegen.Call{Fn: "buf_get"},
				codegen.Seq(4),
				codegen.Loop{Site: "bt_scan", Head: 2, Body: []codegen.Frag{codegen.Seq(5)}},
				codegen.Seq(3),
			}},
			codegen.Call{Fn: "buf_get"},
			codegen.Seq(3),
			codegen.Loop{Site: "bt_leaf", Head: 2, Body: []codegen.Frag{codegen.Seq(5)}},
			codegen.Loop{Site: "btr_iter", Head: 3, Body: []codegen.Frag{
				codegen.If{Site: "btr_hop",
					Then: []codegen.Frag{codegen.Call{Fn: "buf_get"}, codegen.Seq(4)},
					Else: []codegen.Frag{codegen.Seq(6)}},
			}},
			codegen.Seq(4),
		}},
	}

	// Workload transaction models, rooted in the engine models, plus the
	// shard router/coordinator models (exercised only on sharded machines,
	// but always present so one image serves every shard count).
	wlSpecs := cfg.Workload.Models(lib)
	imgName := "oracle-like-oltp-" + cfg.Workload.Name()
	seen := map[string]bool{cfg.Workload.Name(): true}
	seenFn := make(map[string]bool, len(wlSpecs))
	for _, fs := range wlSpecs {
		seenFn[fs.Name] = true
	}
	for _, w := range cfg.ExtraWorkloads {
		if seen[w.Name()] {
			continue
		}
		seen[w.Name()] = true
		// Variants of one implementation share model functions; the first
		// definition serves every workload that probes it by name.
		for _, fs := range w.Models(lib) {
			if seenFn[fs.Name] {
				continue
			}
			seenFn[fs.Name] = true
			wlSpecs = append(wlSpecs, fs)
		}
		imgName += "+" + w.Name()
	}
	wlSpecs = append(wlSpecs, shard.Models(lib)...)
	if cfg.FastPath {
		// Appended after everything the non-fast-path image contains, with
		// no library picks, so the shared generation RNG stream — and hence
		// the rest of the image — is untouched: FastPath=false stays
		// bit-identical to the historical build.
		wlSpecs = append(wlSpecs, predict.Models()...)
		imgName += "+fastpath"
	}

	return lib.Link(imgName, isa.AppTextBase, append(engine, wlSpecs...), "cold", cfg.ColdWords, 1200)
}
