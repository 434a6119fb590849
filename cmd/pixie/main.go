// pixie collects a basic-block execution profile of an OLTP workload, the
// way the paper profiles the pixified Oracle server processes: the image is
// rebuilt from its seed, the workload runs under the baseline layout, and
// exact block/edge counts are written to a profile file. The run is an expt
// session's training run — the one oltpbench -opt and layoutlab train with —
// described by the flag surface the four commands share (expt.BindFlags).
//
// The profiled mix may differ from the image's evaluation workload: with
// -train-workload (and -train-shards) the image is built as a union of both
// workloads' models and the training mix is the one that runs, so the saved
// profile transplants onto an evaluation of -workload — the offline half of
// the robustness experiments.
//
//	pixie -workload tpcb -seed 2001 -txns 2000 -out oltp.prof
//	pixie -workload tpcb -train-workload ycsb -train-shards 4 -out drift.prof
package main

import (
	"flag"
	"fmt"
	"os"

	"codelayout/internal/expt"
	"codelayout/internal/program"
)

func main() {
	var (
		out  = flag.String("out", "oltp.prof", "profile output file")
		kout = flag.String("kout", "", "optional kernel profile output file")
	)
	f := expt.BindFlags(flag.CommandLine, expt.Pixie)
	flag.Parse()
	if err := f.Resolve(); err != nil {
		fatal(err)
	}
	s, err := f.NewSession()
	if err != nil {
		fatal(err)
	}
	prof, err := s.Profile()
	if err != nil {
		fatal(err)
	}
	res, err := s.TrainResult()
	if err != nil {
		fatal(err)
	}
	if err := program.WriteFile(*out, prof.Encode); err != nil {
		fatal(err)
	}
	train := f.Opt.Workload
	if len(f.Extra) > 0 {
		train = f.Extra[0]
	}
	fmt.Printf("profiled %d %s txns (%d app + %d kernel instructions) over image %s, wrote %s\n",
		res.Committed, train.Name(), res.AppInstrs, res.KernelInstrs, s.AppImage().Prog.Name, *out)
	if *kout != "" {
		kprof, err := s.KernProfile()
		if err != nil {
			fatal(err)
		}
		if err := program.WriteFile(*kout, kprof.Encode); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote kernel profile %s\n", *kout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pixie:", err)
	os.Exit(1)
}
