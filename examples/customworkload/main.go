// Customworkload: plugging a user-defined transaction mix into the workload
// name registry through the facade — no internal imports. A 50/50
// read/update key-value variant registers itself as "ycsb50"; from then on
// it is addressable by name everywhere a workload name goes: NewWorkload,
// session options, the robustness matrix, and (if blank-imported by a
// command) every -workload flag.
//
// The program then asks the profile-drift question on the custom mix: how
// well does a layout trained on the stock 95/5 mix serve the 50/50 mix,
// compared to a self-trained layout?
package main

import (
	"flag"
	"fmt"
	"log"

	"codelayout"
)

func main() {
	quick := flag.Bool("quick", true, "use quick scales and a short run")
	flag.Parse()

	// 1. Define and register the custom mix. Registration is by name, like
	// layout passes; duplicates error instead of panicking.
	if err := codelayout.RegisterWorkload("ycsb50", func() codelayout.Workload {
		return codelayout.YCSBMix("ycsb50", 50)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered workloads: %v\n", codelayout.Workloads())

	// 2. Resolve it back by name, as any command would.
	mix, err := codelayout.NewWorkload("ycsb50")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Evaluate the custom mix with two layouts over one shared image:
	// one trained on the mix itself, one transplanted from the stock 95/5
	// workload.
	opts := codelayout.QuickSessionOptions()
	if *quick {
		mix = mix.QuickScale()
		opts.Transactions = 80
		opts.WarmupTxns = 20
		opts.Train.Txns = 200
	} else {
		opts = codelayout.DefaultSessionOptions()
	}
	opts.Workload = mix

	stock := codelayout.YCSB()
	if *quick {
		stock = stock.QuickScale()
	}
	src, err := codelayout.NewProfileSource(opts, stock)
	if err != nil {
		log.Fatal(err)
	}
	s, err := codelayout.NewSessionFrom(src, opts)
	if err != nil {
		log.Fatal(err)
	}

	base, err := s.Measure("base", opts.CPUs)
	if err != nil {
		log.Fatal(err)
	}
	self, err := s.Measure("all", opts.CPUs)
	if err != nil {
		log.Fatal(err)
	}
	// The transplant is a second session over the same source whose
	// training configuration names the other workload.
	opts.Train.Workload = stock
	ts, err := codelayout.NewSessionFrom(src, opts)
	if err != nil {
		log.Fatal(err)
	}
	transplant, err := ts.Measure("all", opts.CPUs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nycsb50 under three layouts (app icache, 64KB/128B/4-way):\n")
	fmt.Printf("  baseline:              %.3f%% miss ratio\n", 100*base.App4W[64].MissRate())
	fmt.Printf("  self-trained 'all':    %.3f%% miss ratio\n", 100*self.App4W[64].MissRate())
	fmt.Printf("  trained on stock ycsb: %.3f%% miss ratio\n", 100*transplant.App4W[64].MissRate())
	if d := transplant.App4W[64].MissRate() / self.App4W[64].MissRate(); d > 1 {
		fmt.Printf("  transplant drift:      +%.1f%% misses over self-trained\n", 100*(d-1))
	}
}
