// Webserver: the paper's introduction motivates commercial workloads beyond
// databases — web servers in particular. This example models a web server's
// request path (accept, parse, route, cache lookup, handler, response) as a
// code image, drives it with a synthetic request mix, and applies the layout
// pipeline. Web serving has a smaller instruction footprint than OLTP, so
// the gains are real but smaller — matching the paper's observation that
// large-footprint workloads benefit most.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"codelayout"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

func buildServer(seed int64) (*codelayout.Image, error) {
	r := rand.New(rand.NewSource(seed))
	// Helper layers: string/header utilities, filesystem cache, TCP-ish IO.
	strSpecs, strNames := codegen.GenLayer(r, codegen.LibConfig{Prefix: "str", N: 40, MeanWords: 50}, nil)
	fsSpecs, fsNames := codegen.GenLayer(r, codegen.LibConfig{
		Prefix: "fscache", N: 30, MeanWords: 60, CallsPerFn: 1, PickWidth: 4}, strNames)
	ioSpecs, ioNames := codegen.GenLayer(r, codegen.LibConfig{
		Prefix: "sock", N: 20, MeanWords: 70, CallsPerFn: 1, PickWidth: 4}, strNames)
	handlers, handlerNames := codegen.GenLayer(r, codegen.LibConfig{
		Prefix: "handler", N: 24, MeanWords: 90, CallsPerFn: 2, PickWidth: 6}, append(fsNames, strNames...))

	fns := append(append(append(append([]codegen.FnSpec{}, strSpecs...), fsSpecs...), ioSpecs...), handlers...)
	fns = append(fns,
		codegen.FnSpec{Name: "parse_request", Auto: true, Body: []codegen.Frag{
			codegen.Seq(12),
			codegen.AutoLoop{Prob: 0.85, Head: 2, Body: []codegen.Frag{codegen.Seq(7)}}, // header lines
			codegen.AutoPick{Fns: strNames[:8]},
			codegen.ErrPath(r),
		}},
		codegen.FnSpec{Name: "route", Auto: true, Body: []codegen.Frag{
			codegen.Seq(8),
			codegen.AutoPick{Fns: handlerNames, Weights: zipf(len(handlerNames))},
			codegen.Seq(4),
		}},
		codegen.FnSpec{Name: "respond", Auto: true, Body: []codegen.Frag{
			codegen.Seq(10), codegen.AutoPick{Fns: ioNames[:6]},
			codegen.AutoLoop{Prob: 0.6, Head: 2, Body: []codegen.Frag{codegen.Seq(9)}},
		}},
		codegen.FnSpec{Name: "serve_request", Auto: true, Body: []codegen.Frag{
			codegen.Seq(6),
			codegen.Call{Fn: "parse_request"},
			codegen.Call{Fn: "route"},
			codegen.Call{Fn: "respond"},
			codegen.Seq(4),
		}},
	)
	fns = append(fns, codegen.GenCold(r, "cold", 600_000, 1000)...)
	return codegen.Build(codegen.ImageSpec{Name: "webserver", TextBase: isa.AppTextBase, Fns: fns})
}

func zipf(n int) []uint32 {
	w := make([]uint32, n)
	for i := range w {
		w[i] = uint32(1000 / (i + 1))
		if w[i] == 0 {
			w[i] = 1
		}
	}
	return w
}

func main() {
	img, err := buildServer(7)
	if err != nil {
		log.Fatal(err)
	}
	base, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		log.Fatal(err)
	}

	px := codelayout.NewPixie(img.Prog, "train")
	em := codegen.NewEmitter(img, base, 11)
	em.Collector = px
	em.Sink = func(uint64, int32) {}
	for i := 0; i < 3000; i++ {
		em.RunAuto("serve_request")
	}

	pl, err := codelayout.ComboPipeline("all")
	if err != nil {
		log.Fatal(err)
	}
	opt, _, err := pl.Run(img.Prog, px.Profile)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("web server request path, 3000 fresh requests per layout:")
	for _, size := range []int{8, 16, 32} {
		measure := func(l *codelayout.Layout) uint64 {
			ic := cache.New(cache.Config{SizeBytes: size << 10, LineBytes: 64, Assoc: 2})
			e := codegen.NewEmitter(img, l, 1234)
			e.Sink = func(addr uint64, words int32) {
				ic.Fetch(trace.FetchRun{Addr: addr, Words: words})
			}
			for i := 0; i < 3000; i++ {
				e.RunAuto("serve_request")
			}
			return ic.Stats().Misses
		}
		b, o := measure(base), measure(opt)
		fmt.Printf("  %2dKB 2-way icache: base %7d  opt %7d  (%.1f%% reduction)\n",
			size, b, o, 100*(1-float64(o)/float64(b)))
	}
}
