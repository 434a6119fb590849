package codegen

import (
	"fmt"
	"math"
	"math/rand"
)

// LibConfig shapes one generated layer of auto helper functions. These model
// the bulk of a commercial database binary — row formatters, comparators,
// latch and cursor utilities — that executes under the instrumented entry
// points and gives the image its large, flat instruction footprint.
type LibConfig struct {
	// Prefix names the layer's functions (prefix_0, prefix_1, ...) and is
	// the family name Pick and later layers' Pools refer to.
	Prefix string
	// N is the number of functions in the layer.
	N int
	// MeanWords is the approximate straight-line size of each function.
	MeanWords int
	// CallsPerFn is how many call sites each function gets into its pools
	// (0 for leaf layers).
	CallsPerFn int
	// PickWidth is the dispatch width of each call site: >1 uses an
	// indirect AutoPick over that many candidates, spreading execution
	// across the layers below.
	PickWidth int
	// Pools names the earlier layers the call sites dispatch into; their
	// functions are concatenated in the listed order.
	Pools []string
}

// Library is the generated half of one image and the recipe that links it:
// the helper layers, the call sites hand-written models make into them, the
// cold complement, and the module-clustered link order. Every random choice
// comes from the library's one rng, so an image is a pure function of the
// seed, the layer table and the order of the Pick and ErrPath calls.
type Library struct {
	r     *rand.Rand
	fams  map[string][]string
	specs []FnSpec // every layer's functions, bottom layer first
}

// NewLibrary generates the layers, bottom (leaf) first, from an rng seeded
// with seed.
func NewLibrary(seed int64, layers []LibConfig) *Library {
	lib := &Library{r: rand.New(rand.NewSource(seed)), fams: make(map[string][]string)}
	for _, c := range layers {
		lib.layer(c)
	}
	return lib
}

// layer generates one layer of auto functions that call into its pools.
func (lib *Library) layer(c LibConfig) {
	var pool []string
	for _, p := range c.Pools {
		pool = append(pool, lib.fams[p]...)
	}
	names := make([]string, 0, c.N)
	for i := 0; i < c.N; i++ {
		name := fmt.Sprintf("%s_%d", c.Prefix, i)
		lib.specs = append(lib.specs, FnSpec{
			Name: name,
			Auto: true,
			Body: lib.autoBody(c, pool),
		})
		names = append(names, name)
	}
	lib.fams[c.Prefix] = names
}

// autoBody builds a plausible helper-function body: short straight-line
// stretches separated by biased branches, an occasional short loop, and call
// sites into the layers below.
func (lib *Library) autoBody(c LibConfig, pool []string) []Frag {
	r := lib.r
	var body []Frag
	remaining := c.MeanWords/2 + r.Intn(c.MeanWords+1)
	calls := c.CallsPerFn
	if len(pool) == 0 {
		calls = 0
	}
	seq := func(max int) Seq {
		n := 2 + r.Intn(max)
		if n > remaining {
			n = remaining
		}
		if n < 1 {
			n = 1
		}
		remaining -= n
		return Seq(n)
	}
	for remaining > 0 {
		switch r.Intn(8) {
		case 0, 1, 2:
			body = append(body, seq(9))
		case 3:
			// Biased conditional: hot arm first with p in [0.65, 0.95].
			p := 0.65 + 0.3*r.Float64()
			frag := AutoIf{Prob: p, Then: []Frag{seq(7)}}
			if r.Intn(2) == 0 {
				frag.Else = []Frag{seq(7)}
			}
			body = append(body, frag)
		case 4:
			// Short loop, mean ~2 extra iterations.
			body = append(body, AutoLoop{Prob: 0.55 + 0.15*r.Float64(), Head: 2, Body: []Frag{seq(6)}})
		case 5:
			if calls > 0 {
				body = append(body, lib.callSite(c, pool))
				calls--
			} else {
				body = append(body, seq(9))
			}
		case 6, 7:
			// Error/assertion path: in-line code that essentially never
			// executes, as real engine code carries everywhere. These
			// blocks inflate the baseline's fetched-but-unused words; the
			// fine-grain splitting pass is what gets rid of them.
			body = append(body, lib.ErrPath())
		}
	}
	for calls > 0 {
		body = append(body, lib.callSite(c, pool))
		calls--
	}
	return body
}

func (lib *Library) callSite(c LibConfig, pool []string) Frag {
	r := lib.r
	width := c.PickWidth
	if width <= 1 || len(pool) == 1 {
		return Call{Fn: pool[r.Intn(len(pool))]}
	}
	if width > len(pool) {
		width = len(pool)
	}
	// Pick a random window of candidates with Zipf-ish weights so that some
	// callees are much hotter than others (a flat-but-skewed profile, like
	// Figure 3's).
	start := r.Intn(len(pool) - width + 1)
	fns := make([]string, width)
	weights := make([]uint32, width)
	perm := r.Perm(width)
	for j := 0; j < width; j++ {
		fns[j] = pool[start+j]
		weights[j] = uint32(math.Max(1, 1000/math.Pow(float64(perm[j]+1), 0.9)))
	}
	return AutoPick{Fns: fns, Weights: weights}
}

// Pick builds an indirect call site from a hand-written model into a window
// of up to width functions of the named layer, with uniform random weights.
func (lib *Library) Pick(family string, width int) Frag {
	names := lib.fams[family]
	if len(names) == 0 {
		panic(fmt.Sprintf("codegen: empty library family %q", family))
	}
	width = min(width, len(names))
	start := lib.r.Intn(len(names) - width + 1)
	fns := make([]string, width)
	weights := make([]uint32, width)
	for i := 0; i < width; i++ {
		fns[i] = names[start+i]
		weights[i] = uint32(1 + lib.r.Intn(900))
	}
	return AutoPick{Fns: fns, Weights: weights}
}

// ErrPath returns an inline error-handling branch that essentially never
// executes (probability ~1 of falling through past it). Real database code
// is dense with these; they are what makes nearly half the fetched words of
// an unoptimized binary useless.
func (lib *Library) ErrPath() Frag {
	return AutoIf{
		Prob: 0.9995,
		Else: []Frag{Seq(6 + lib.r.Intn(28))},
	}
}

// Link builds the image: the hand-written models, then every library layer,
// then a cold complement of about coldWords never-executed words in
// functions of about coldFnWords each, named coldPrefix_0, coldPrefix_1, ...
//
// The functions are linked the way real binaries are, object file by object
// file: the models and layers are cut, in that order, into modules of three
// to eight functions, the modules are shuffled, and each is followed by its
// share of the cold code. The hot footprint therefore spreads across the
// whole image (bad iTLB and page locality, as the paper's baseline shows)
// while related hot functions still share lines and pages (so whole-procedure
// reordering alone wins little, also as the paper shows).
func (lib *Library) Link(name string, textBase uint64, models []FnSpec, coldPrefix string, coldWords, coldFnWords int) (*Image, error) {
	cold := lib.cold(coldPrefix, coldWords, coldFnWords)
	hot := append(append([]FnSpec{}, models...), lib.specs...)
	var modules [][]FnSpec
	for len(hot) > 0 {
		n := min(3+lib.r.Intn(6), len(hot))
		modules = append(modules, hot[:n])
		hot = hot[n:]
	}
	lib.r.Shuffle(len(modules), func(i, j int) { modules[i], modules[j] = modules[j], modules[i] })
	var fns []FnSpec
	ci := 0
	for i, mod := range modules {
		fns = append(fns, mod...)
		for want := (i + 1) * len(cold) / len(modules); ci < want; ci++ {
			fns = append(fns, cold[ci])
		}
	}
	fns = append(fns, cold[ci:]...)
	return Build(ImageSpec{Name: name, TextBase: textBase, Fns: fns})
}

// cold generates never-executed functions totaling about totalWords of code,
// modeling the cold bulk of a large database binary.
func (lib *Library) cold(prefix string, totalWords, meanFnWords int) []FnSpec {
	var specs []FnSpec
	for i := 0; totalWords > 0; i++ {
		n := meanFnWords/2 + lib.r.Intn(meanFnWords+1)
		if n > totalWords {
			n = totalWords
		}
		if n < 4 {
			n = 4
		}
		totalWords -= n
		// A couple of blocks so cold procedures are not single blobs.
		third := n / 3
		specs = append(specs, FnSpec{
			Name: fmt.Sprintf("%s_%d", prefix, i),
			Auto: true,
			Cold: true,
			Body: []Frag{
				Seq(third + 1),
				AutoIf{Prob: 0.5, Then: []Frag{Seq(third + 1)}},
				Seq(n - 2*third),
			},
		})
	}
	return specs
}
