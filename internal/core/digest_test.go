package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// layoutsDigest is the sha256 TestPassLayoutsDigestPinned holds the optimizer
// to. A change that moves it moves some layout: re-pin only a change meant to.
const layoutsDigest = "89c0311a66459c6d59f46495579e7ef16215da9ef47de741150c9cba92b5dc28"

// digestSpecs are the pipelines the digest covers: every combo, call chaining
// at a threshold and under hot/cold splitting, and a non-default alignment
// with a small-cache CFA plan.
func digestSpecs() []string {
	var specs []string
	for _, c := range core.Combos() {
		specs = append(specs, c.Spec)
	}
	return append(specs,
		"chain,split:fine,ipchain:3,porder:ph",
		"chain,split:hotcold,ipchain,porder:orig",
		"chain,split:fine,porder:ph,align:8,cfa:4096/1024",
	)
}

// hashLayout writes one layout's Place words, Order and report into h.
func hashLayout(h hash.Hash, l *program.Layout, rep *core.Report) {
	buf := make([]byte, 0, 8*(len(l.Place)+len(l.Order)))
	for _, w := range l.Place {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
	}
	for _, id := range l.Order {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	h.Write(buf)
	fmt.Fprintf(h, "%+v\n", *rep)
}

// TestPassLayoutsDigestPinned pins the layout every pipeline of digestSpecs
// builds over 120 random programs, plus a txfuse:100 run that clones through
// a real cloner with every procedure a kind root, as one sha256 over Place
// words, Order and Report. The golden oracle shares ChainProc, BuildUnits and
// unitWords with the pipeline and covers neither ipchain nor txfuse, so this
// is what holds those building blocks still across a refactor.
func TestPassLayoutsDigestPinned(t *testing.T) {
	specs := digestSpecs()
	h := sha256.New()
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(12))
		pf := progtest.RandProfile(r, p, 5+r.Intn(30), 400)
		for _, spec := range specs {
			pl, err := core.ParsePipeline(spec)
			if err != nil {
				t.Fatal(err)
			}
			l, rep, err := pl.Run(p, pf)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, spec, err)
			}
			hashLayout(h, l, rep)
		}
		// Cloning grows the program and moves profile counts, so it runs
		// last. Every procedure roots a kind, so shared callees clone.
		var roots []core.KindRoot
		for _, pr := range p.Procs {
			roots = append(roots, core.KindRoot{Kind: pr.Name, Proc: pr.ID})
		}
		pl, err := core.ParsePipeline("chain,split:hotcold,txfuse:100,porder:ph")
		if err != nil {
			t.Fatal(err)
		}
		l, rep, err := pl.RunChained(p, pf, nil, roots, &testCloner{p: p})
		if err != nil {
			t.Fatalf("seed %d txfuse:100: %v", seed, err)
		}
		hashLayout(h, l, rep)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != layoutsDigest {
		t.Fatalf("layouts digest %s, pinned %s", got, layoutsDigest)
	}
}
