package codegen_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// randFrags generates a random auto-only fragment tree of bounded depth.
func randFrags(r *rand.Rand, depth int, pool []string) []codegen.Frag {
	n := 1 + r.Intn(4)
	out := make([]codegen.Frag, 0, n)
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4 || depth <= 0:
			out = append(out, codegen.Seq(1+r.Intn(12)))
		case k < 6:
			f := codegen.AutoIf{Prob: r.Float64(), Then: randFrags(r, depth-1, pool)}
			if r.Intn(2) == 0 {
				f.Else = randFrags(r, depth-1, pool)
			}
			out = append(out, f)
		case k < 8:
			out = append(out, codegen.AutoLoop{
				Prob: 0.3 + 0.4*r.Float64(),
				Head: 1 + r.Intn(3),
				Body: randFrags(r, depth-1, pool),
			})
		case k < 9 && len(pool) > 0:
			out = append(out, codegen.Call{Fn: pool[r.Intn(len(pool))]})
		default:
			if len(pool) >= 2 {
				w := 2 + r.Intn(3)
				if w > len(pool) {
					w = len(pool)
				}
				start := r.Intn(len(pool) - w + 1)
				out = append(out, codegen.AutoPick{Fns: pool[start : start+w]})
			} else {
				out = append(out, codegen.Seq(2))
			}
		}
	}
	return out
}

// randImage builds a random layered auto image; functions only call earlier
// (deeper) functions, so auto walks always terminate.
func randImage(r *rand.Rand) (*codegen.Image, error) {
	var fns []codegen.FnSpec
	var pool []string
	nfns := 3 + r.Intn(8)
	for i := 0; i < nfns; i++ {
		name := string(rune('a'+i)) + "_fn"
		fns = append(fns, codegen.FnSpec{
			Name: name,
			Auto: true,
			Body: randFrags(r, 3, pool),
		})
		pool = append(pool, name)
	}
	return codegen.Build(codegen.ImageSpec{Name: "prop", TextBase: isa.AppTextBase, Fns: fns})
}

// TestRandomImagesWalkAndOptimizeProperty is the end-to-end property: any
// random image builds into a valid program; seeded auto walks terminate;
// the profile they produce drives every optimization combo into a valid
// layout; and re-walking with the same seed under the optimized layout
// executes the identical logical block sequence.
func TestRandomImagesWalkAndOptimizeProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img, err := randImage(r)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		if err := img.Prog.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		base, err := program.BaselineLayout(img.Prog)
		if err != nil {
			return false
		}
		top := img.Prog.Procs[len(img.Prog.Procs)-1].Name

		walk := func(l *program.Layout, emitterSeed int64) *profile.Profile {
			px := profile.NewPixie(img.Prog, "w")
			e := codegen.NewEmitter(img, l, emitterSeed)
			e.Collector = px
			e.Sink = func(uint64, int32) {}
			for i := 0; i < 30; i++ {
				e.RunAuto(top)
			}
			if !e.Idle() {
				t.Fatalf("seed %d: walker stuck", seed)
			}
			return px.Profile()
		}
		prof := walk(base, seed*3+1)
		for _, combo := range core.Combos() {
			pl, err := core.ParsePipeline(combo.Spec)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			opt, _, err := pl.Run(img.Prog, prof)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			if err := opt.Validate(); err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			// Layout invariance: identical PRNG seed, identical logical
			// execution.
			again := walk(opt, seed*3+1)
			for b, n := range prof.BlockCount {
				if again.BlockCount[b] != n {
					t.Logf("seed %d %s: block %d count %d != %d",
						seed, combo.Name, b, again.BlockCount[b], n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
