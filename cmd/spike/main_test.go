package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"codelayout/internal/expt"
	"codelayout/internal/program"
)

// TestBaseComboIsTheSessionBase: "base" names one layout. The file spike
// -combo base writes — given a real profile, which a base *pipeline* would
// let pick each branch pair's first arm — loads equal to what a session
// measures as "base", so spike + oltpbench -layout is oltpbench -opt base.
func TestBaseComboIsTheSessionBase(t *testing.T) {
	o := expt.QuickOptions()
	o.CPUs, o.ProcsPerCPU = 1, 4
	o.Train.Txns, o.WarmupTxns = 120, 10
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.AppImage().Prog
	pf, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	progPath, profPath, out := filepath.Join(dir, "app.prog"), filepath.Join(dir, "app.prof"), filepath.Join(dir, "base.layout")
	if err := prog.SaveFile(progPath); err != nil {
		t.Fatal(err)
	}
	if err := pf.SaveFile(profPath); err != nil {
		t.Fatal(err)
	}

	// main reads the process's command line; a failure exits the test binary
	// with spike's message.
	os.Args = []string{"spike", "-prog", progPath, "-profile", profPath, "-combo", "base", "-out", out}
	flag.CommandLine = flag.NewFlagSet("spike", flag.ExitOnError)
	main()

	got, err := program.LoadLayoutFile(out, prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Layout("base")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Order", got.Order, want.Order},
		{"Addr", got.Addr, want.Addr},
		{"CondFirst", got.CondFirst, want.CondFirst},
		{"AlignWords", got.AlignWords, want.AlignWords},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s of the layout spike -combo base wrote differs from the session's base", f.name)
		}
	}
}
