// Quickstart: build a small modeled binary, profile it, optimize its layout
// with the paper's pipeline (chain + fine-grain split + Pettis–Hansen), and
// compare instruction-cache misses under both layouts.
package main

import (
	"fmt"
	"log"

	"codelayout"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

func main() {
	// A toy image: a dispatcher that calls three handlers through helper
	// layers; handler "hot" dominates.
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "quickstart",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "memfmt", Auto: true, Body: []codegen.Frag{codegen.Seq(18)}},
			{Name: "check", Auto: true, Body: []codegen.Frag{
				codegen.Seq(6),
				codegen.AutoIf{Prob: 0.9, Then: []codegen.Frag{codegen.Seq(4)}, Else: []codegen.Frag{codegen.Seq(30)}},
			}},
			{Name: "hot", Auto: true, Body: []codegen.Frag{
				codegen.Seq(10), codegen.Call{Fn: "check"},
				codegen.AutoLoop{Prob: 0.7, Head: 2, Body: []codegen.Frag{codegen.Seq(8)}},
				codegen.Call{Fn: "memfmt"},
			}},
			{Name: "warm", Auto: true, Body: []codegen.Frag{
				codegen.Seq(40), codegen.Call{Fn: "check"},
			}},
			{Name: "cold_helper", Auto: true, Cold: true, Body: []codegen.Frag{codegen.Seq(900)}},
			{Name: "dispatch", Auto: true, Body: []codegen.Frag{
				codegen.Seq(5),
				codegen.AutoPick{Fns: []string{"hot", "warm"}, Weights: []uint32{9, 1}},
				codegen.Seq(3),
			}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	base, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		log.Fatal(err)
	}

	// Profile: run the dispatcher under the baseline layout with a Pixie
	// collector attached.
	px := codelayout.NewPixie(img.Prog, "train")
	em := codegen.NewEmitter(img, base, 1)
	em.Collector = px
	em.Sink = func(uint64, int32) {}
	for i := 0; i < 5000; i++ {
		em.RunAuto("dispatch")
	}

	// Optimize with the full pipeline over what the collector counted
	// (px.Profile() is the one way to read it).
	pl, err := codelayout.ComboPipeline("all")
	if err != nil {
		log.Fatal(err)
	}
	opt, rep, err := pl.Run(img.Prog, px.Profile())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized: %d chains, %d units (%d hot)\n", rep.Chains, rep.Units, rep.HotUnits)

	// Measure both layouts on a tiny cache with a fresh workload seed.
	measure := func(l *codelayout.Layout) uint64 {
		ic := cache.New(cache.Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 1})
		e := codegen.NewEmitter(img, l, 99)
		e.Sink = func(addr uint64, words int32) {
			ic.Fetch(trace.FetchRun{Addr: addr, Words: words})
		}
		for i := 0; i < 5000; i++ {
			e.RunAuto("dispatch")
		}
		return ic.Stats().Misses
	}
	b, o := measure(base), measure(opt)
	fmt.Printf("icache misses: baseline %d, optimized %d (%.1f%% reduction)\n",
		b, o, 100*(1-float64(o)/float64(b)))
}
