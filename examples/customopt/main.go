// Customopt: plugging a custom procedure-ordering pass into the pipeline.
// The optimizer is a registry of named passes; RegisterPass adds a new one
// and ParsePipeline assembles any sequence by name. Here a naive "sort units
// by hotness" ordering pass is registered as "hotsort" and compared with
// Pettis–Hansen, showing why call-graph affinity beats raw hotness.
//
// Run with -passes to try any other pipeline spec, e.g.:
//
//	customopt -passes chain,split:none,ipchain,porder:ph
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"codelayout"
	"codelayout/internal/appmodel"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"

	"math/rand"
)

// hotSortPass orders hot units by raw execution count, cold units last in
// their original relative order — the strawman Pettis–Hansen improves on.
// Like the built-in ordering passes, it refuses to overwrite an ordering an
// earlier pass already produced.
type hotSortPass struct{}

func (hotSortPass) Name() string { return "hotsort" }

func (hotSortPass) Run(st *codelayout.LayoutState) error {
	if st.UnitOrder != nil {
		return fmt.Errorf("units already ordered")
	}
	st.EnsureUnits()
	var hot, cold []int
	for i, u := range st.Units {
		if u.Hot {
			hot = append(hot, i)
		} else {
			cold = append(cold, i)
		}
	}
	sort.SliceStable(hot, func(a, b int) bool {
		return st.Units[hot[a]].Count > st.Units[hot[b]].Count
	})
	st.UnitOrder = append(hot, cold...)
	return nil
}

func main() {
	custom := flag.String("passes", "", "extra pipeline spec to measure alongside the built-in comparison")
	flag.Parse()

	if err := codelayout.RegisterPass("hotsort", func(arg string) (codelayout.Pass, error) {
		return hotSortPass{}, nil
	}); err != nil {
		log.Fatal(err)
	}

	img, err := appmodel.Build(appmodel.Config{Seed: 3, LibScale: 0.5, ColdWords: 400_000, Workload: tpcb.New()})
	if err != nil {
		log.Fatal(err)
	}
	base, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		log.Fatal(err)
	}

	// Train on real transactions.
	px := codelayout.NewPixie(img.Prog, "train")
	train := newRun(img, base, 100)
	train.em.Collector = px
	train.txns(300)
	// Read once, after the run: Profile() builds the edge map from the
	// collector's counters, and every pipeline below shares the result.
	prof := px.Profile()

	type candidate struct {
		name string
		l    *codelayout.Layout
	}
	candidates := []candidate{{"baseline", base}}
	specs := []struct{ name, spec string }{
		{"hotsort", "chain,split:fine,hotsort"},
		{"pettis-hansen", "chain,split:fine,porder:ph"},
	}
	if *custom != "" {
		specs = append(specs, struct{ name, spec string }{"custom", *custom})
	}
	for _, sp := range specs {
		pl, err := codelayout.ParsePipeline(sp.spec)
		if err != nil {
			log.Fatalf("bad pipeline %q: %v", sp.spec, err)
		}
		l, _, err := pl.Run(img.Prog, prof)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-15s -> %s\n", sp.name, pl)
		candidates = append(candidates, candidate{sp.name, l})
	}

	fmt.Println("\ncustom ordering pass comparison (32KB direct-mapped, 128B lines):")
	for _, c := range candidates {
		run := newRun(img, c.l, 2024)
		ic := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 1})
		run.em.Sink = func(addr uint64, words int32) {
			ic.Fetch(trace.FetchRun{Addr: addr, Words: words})
		}
		run.txns(300)
		fmt.Printf("  %-15s %7d misses\n", c.name, ic.Stats().Misses)
	}
}

// run drives real TPC-B transactions through an emitter outside the full
// machine (single process, no kernel).
type run struct {
	em   *codegen.Emitter
	inst codelayout.WorkloadInstance
	sess []*db.Session
	rng  *rand.Rand
	in   workload.Input // the previous request, refilled by the next GenInput
}

func newRun(img *codelayout.Image, l *codelayout.Layout, seed int64) *run {
	em := codegen.NewEmitter(img, l, seed)
	em.Sink = func(uint64, int32) {}
	eng := db.NewEngine(db.Config{BufferPoolPages: 8192})
	inst, err := tpcb.NewScaled(tpcb.Scale{Branches: 5, TellersPerBranch: 5, AccountsPerBranch: 200}).Load([]*db.Engine{eng})
	if err != nil {
		log.Fatal(err)
	}
	return &run{em: em, inst: inst, sess: []*db.Session{eng.NewSession(1, em)}, rng: rand.New(rand.NewSource(seed))}
}

func (r *run) txns(n int) {
	for i := 0; i < n; i++ {
		r.in = r.inst.GenInput(r.rng, r.in)
		r.inst.RunTxn(r.sess, r.in)
	}
}
