// oltpgen builds the modeled application and kernel binaries and writes
// them to disk, the inputs of the cmd/pixie → cmd/spike → cmd/oltpbench
// pipeline. The images are the ones an expt session builds for the same
// flags (expt.BindFlags is the flag surface the four commands share), so
// pixie, oltpbench and layoutlab rebuild them bit for bit from the seed.
//
// With -train-workload the app image is the union of both workloads'
// models, matching the image cmd/pixie builds when profiling one mix for
// evaluation under another — the offline transplant pipeline:
//
//	oltpgen -out ./images -seed 2001 -libscale 1.0 -workload ordere
//	oltpgen -out ./images -workload tpcb -train-workload ycsb
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"codelayout/internal/expt"
	"codelayout/internal/program"
)

func main() {
	out := flag.String("out", ".", "output directory")
	f := expt.BindFlags(flag.CommandLine, expt.Oltpgen)
	flag.Parse()
	if err := f.Resolve(); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	s, err := f.NewSession()
	if err != nil {
		fatal(err)
	}
	app, kern := s.AppImage(), s.KernelImage()
	appPath := filepath.Join(*out, "app.prog")
	if err := program.WriteFile(appPath, app.Prog.Encode); err != nil {
		fatal(err)
	}
	st := app.Prog.ComputeStats()
	label := f.Opt.Workload.Name()
	for _, w := range f.Extra {
		label += "+" + w.Name()
	}
	fmt.Printf("wrote %s (%s workload): %d procs (%d cold), %d blocks, %.1f MB static\n",
		appPath, label, st.Procs, st.ColdProcs, st.Blocks, float64(st.BodyWords*4)/(1<<20))

	kernPath := filepath.Join(*out, "kernel.prog")
	if err := program.WriteFile(kernPath, kern.Prog.Encode); err != nil {
		fatal(err)
	}
	kst := kern.Prog.ComputeStats()
	fmt.Printf("wrote %s: %d procs (%d cold), %.1f MB static\n",
		kernPath, kst.Procs, kst.ColdProcs, float64(kst.BodyWords*4)/(1<<20))
	fmt.Println("note: emitter-driven runs rebuild images from the same seed;")
	fmt.Println("these files serve cmd/spike offline analysis.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "oltpgen:", err)
	os.Exit(1)
}
