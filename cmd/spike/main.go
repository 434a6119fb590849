// spike applies the paper's code layout optimizations to a program given a
// profile, like the Spike executable optimizer: basic block chaining,
// fine-grain procedure splitting, and Pettis–Hansen procedure ordering.
//
// The optimizer is a pass pipeline; a combo name is a row of core's combo
// table (name → pipeline spec) or "base", the original binary no pipeline
// builds, and -passes runs an arbitrary spec instead.
// The file -out writes is the layout that was built — oltpbench -layout
// replays it exactly, whatever the combo or align:N:
//
//	spike -prog images/app.prog -profile oltp.prof -combo all -out app.layout
//	spike -prog images/app.prog -profile oltp.prof -passes chain,split:fine,porder:ph
//	spike -list-passes
//
// Standalone txfuse runs derive transaction roots from the profile's call
// graph (hot procedures nothing calls) and skip cloning — full fusion with
// kind roots and procedure cloning needs the image-aware drivers
// (oltpbench -opt fusion, layoutlab).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

func main() {
	comboNames := []string{"base"}
	for _, c := range core.Combos() {
		comboNames = append(comboNames, c.Name)
	}
	var (
		progPath = flag.String("prog", "", "program file (from oltpgen)")
		profPath = flag.String("profile", "", "profile file (from pixie)")
		combo    = flag.String("combo", "all", "optimization combo: "+strings.Join(comboNames, "|"))
		passes   = flag.String("passes", "", "comma-separated pass pipeline (overrides -combo), e.g. chain,split:fine,porder:ph")
		list     = flag.Bool("list-passes", false, "list the registered passes with their descriptions and exit")
		out      = flag.String("out", "", "layout output file (optional)")
		dump     = flag.Bool("dump", false, "dump the laid-out program (small programs only)")
	)
	flag.Parse()
	if *list {
		for _, d := range core.PassDocs() {
			fmt.Printf("%-12s %s\n", d.Name, d.Doc)
		}
		return
	}
	if *progPath == "" || *profPath == "" {
		fatal(fmt.Errorf("need -prog and -profile"))
	}
	p, err := program.ReadFile(*progPath, program.ReadProgram)
	if err != nil {
		fatal(err)
	}
	pf, err := program.ReadFile(*profPath, profile.Read)
	if err != nil {
		fatal(err)
	}

	base, err := program.BaselineLayout(p)
	if err != nil {
		fatal(err)
	}
	name, l := *combo, base
	if *passes == "" && name == "base" {
		fmt.Println("base: the original binary, no passes")
	} else {
		var pl core.Pipeline
		if *passes != "" {
			name = "custom"
			pl, err = core.ParsePipeline(*passes)
			if err != nil {
				// The core error already lists the registered passes.
				err = fmt.Errorf("bad -passes spec %q: %w", *passes, err)
			}
		} else {
			pl, err = core.ComboPipeline(name)
		}
		if err != nil {
			fatal(err)
		}
		var rep *core.Report
		if l, rep, err = pl.Run(p, pf); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: passes %s\n", name, pl)
		fmt.Printf("%s: %d chains, %d units (%d hot), hot text %.1f KB\n",
			name, rep.Chains, rep.Units, rep.HotUnits,
			float64(rep.HotWords*isa.WordBytes)/1024)
		if rep.FusedKinds > 0 {
			fmt.Printf("%s: fused %d transaction kinds (%d procedures cloned, %.1f KB growth)\n",
				name, rep.FusedKinds, rep.ClonedProcs,
				float64(rep.CloneWords*isa.WordBytes)/1024)
		}
	}
	fmt.Printf("image: %.2f MB -> %.2f MB (padding %.1f KB, %d long branches)\n",
		float64(base.TotalBytes())/(1<<20), float64(l.TotalBytes())/(1<<20),
		float64(l.PadWords*isa.WordBytes)/1024, l.LongBranches)
	if *out != "" {
		if err := program.WriteFile(*out, func(w io.Writer) error { return program.SaveLayout(w, l) }); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *dump {
		p.Dump(os.Stdout, l)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spike:", err)
	os.Exit(1)
}
