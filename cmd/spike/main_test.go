package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
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
	if err := program.WriteFile(progPath, prog.Encode); err != nil {
		t.Fatal(err)
	}
	if err := program.WriteFile(profPath, pf.Encode); err != nil {
		t.Fatal(err)
	}

	// main reads the process's command line; a failure exits the test binary
	// with spike's message.
	os.Args = []string{"spike", "-prog", progPath, "-profile", profPath, "-combo", "base", "-out", out}
	flag.CommandLine = flag.NewFlagSet("spike", flag.ExitOnError)
	main()

	got, err := program.ReadFile(out, func(r io.Reader) (*program.Layout, error) { return program.LoadLayout(r, prog) })
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
		{"Place", got.Place, want.Place},
		{"CondFirst", got.CondFirst, want.CondFirst},
		{"AlignWords", got.AlignWords, want.AlignWords},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s of the layout spike -combo base wrote differs from the session's base", f.name)
		}
	}
}

// TestForeignProfileIsAnError: a profile gathered on another, larger image
// used to exit 0 and print chain and hot-text numbers over weights that
// belong to other blocks. spike must name the mismatch and exit 1.
func TestForeignProfileIsAnError(t *testing.T) {
	if args := os.Getenv("SPIKE_TEST_ARGS"); args != "" {
		// The child: spike itself, whose failures end the process.
		os.Args = append([]string{"spike"}, strings.Split(args, "\n")...)
		flag.CommandLine = flag.NewFlagSet("spike", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	session := func(libScale float64, coldWords int) *expt.Session {
		o := expt.QuickOptions()
		o.CPUs, o.ProcsPerCPU = 1, 4
		o.Train.Txns, o.WarmupTxns = 60, 10
		o.LibScale, o.ColdWords, o.KernColdWords = libScale, coldWords, 100_000
		s, err := expt.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pf, err := session(0.3, 400_000).Profile()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	progPath, profPath := filepath.Join(dir, "app.prog"), filepath.Join(dir, "other.prof")
	if err := program.WriteFile(progPath, session(0.2, 100_000).AppImage().Prog.Encode); err != nil {
		t.Fatal(err)
	}
	if err := program.WriteFile(profPath, pf.Encode); err != nil {
		t.Fatal(err)
	}

	self, err := os.Executable() // not os.Args[0]: the test above rewrote it
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-test.run=^TestForeignProfileIsAnError$")
	cmd.Env = append(os.Environ(), "SPIKE_TEST_ARGS="+strings.Join([]string{"-prog", progPath, "-profile", profPath, "-combo", "all"}, "\n"))
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("spike over another program's profile: %v, want exit status 1\nstdout: %s", err, stdout.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, `spike: core: profile "pixie-train" counts `) || !strings.Contains(msg, "it is a profile of another program") {
		t.Errorf("stderr %q does not name the mismatch", msg)
	}
	if strings.Contains(stdout.String(), "chains") {
		t.Errorf("spike reported a layout before failing:\n%s", stdout.String())
	}
}
