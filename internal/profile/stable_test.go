package profile_test

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// goldenProfile builds the exact profile committed as
// testdata/golden.profile. Regenerate the fixture with
//
//	UPDATE_GOLDEN_PROFILE=1 go test ./internal/profile/ -run TestGoldenProfileFixture
//
// if the wire format ever changes intentionally.
func goldenProfile() *profile.Profile {
	pf := &profile.Profile{
		Name:       "golden",
		BlockCount: []uint64{12, 0, 7, 3, 190, 0, 0, 88, 1, 4096},
		EdgeCount:  map[uint64]uint64{},
	}
	pf.AddEdge(0, 2, 7)
	pf.AddEdge(2, 4, 5)
	pf.AddEdge(4, 4, 180)
	pf.AddEdge(4, 7, 9)
	pf.AddEdge(7, 9, 88)
	pf.AddEdge(9, 0, 11)
	return pf
}

var updateGolden = os.Getenv("UPDATE_GOLDEN_PROFILE") != ""

// TestGoldenProfileFixture pins the on-disk encoding: the committed fixture
// must decode to the known profile and re-encode bit-identically. This is
// what lets the persistent store content-hash files and trust that a
// load/store cycle is a no-op.
func TestGoldenProfileFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden.profile")
	want := goldenProfile()
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := program.WriteFile(path, want.Encode); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (set UPDATE_GOLDEN_PROFILE=1 to regenerate): %v", err)
	}
	got, err := profile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode golden fixture: %v", err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("golden fixture fingerprint = %#x, want %#x", got.Fingerprint(), want.Fingerprint())
	}
	var reenc bytes.Buffer
	if err := got.Encode(&reenc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), raw) {
		t.Fatalf("decode+re-encode is not bit-identical: %d bytes vs %d on disk", reenc.Len(), len(raw))
	}
}

// TestEncodeDeterministic: the same logical profile, with its edge map
// populated in different insertion orders, must encode to identical bytes.
func TestEncodeDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := progtest.RandProgram(r, 3)
	a := progtest.RandProfile(r, p, 20, 400)
	b := &profile.Profile{Name: a.Name, BlockCount: append([]uint64(nil), a.BlockCount...), EdgeCount: map[uint64]uint64{}}
	keys := make([]uint64, 0, len(a.EdgeCount))
	for k := range a.EdgeCount {
		keys = append(keys, k)
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		b.EdgeCount[k] = a.EdgeCount[k]
	}
	var ba, bb bytes.Buffer
	if err := a.Encode(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("encoding depends on edge-map insertion order")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on edge-map insertion order")
	}
}

func TestCorruptProfileLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenProfile().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := map[string][]byte{
		"truncated":  raw[:len(raw)/2],
		"garbage":    []byte("not a gob stream at all"),
		"bit-flip":   append(append([]byte(nil), raw[:len(raw)-3]...), raw[len(raw)-3]^0xff, raw[len(raw)-2], raw[len(raw)-1]),
		"empty":      {},
		"first-zero": append([]byte{0}, raw...),
	}
	for name, data := range cases {
		if _, err := profile.Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	for _, bad := range []float64{-1, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		pf := goldenProfile()
		if err := pf.Scale(bad); err == nil {
			t.Errorf("Scale(%v): want error, got nil", bad)
		}
	}
	pf := goldenProfile()
	if err := pf.Scale(0.5); err != nil {
		t.Fatal(err)
	}
	if got := pf.Count(4); got != 95 {
		t.Fatalf("Count(4) after Scale(0.5) = %d, want 95", got)
	}
	if got := pf.Edge(4, 4); got != 90 {
		t.Fatalf("Edge(4,4) after Scale(0.5) = %d, want 90", got)
	}
	// Scaling to zero drops edges entirely rather than keeping zero entries.
	if err := pf.Scale(0); err != nil {
		t.Fatal(err)
	}
	if pf.HasEdges() {
		t.Fatal("Scale(0) left zero-count edges behind")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := goldenProfile().Fingerprint()
	mutations := map[string]func(*profile.Profile){
		"name":        func(pf *profile.Profile) { pf.Name = "golden2" },
		"block count": func(pf *profile.Profile) { pf.BlockCount[4]++ },
		"edge count":  func(pf *profile.Profile) { pf.AddEdge(4, 4, 1) },
		"new edge":    func(pf *profile.Profile) { pf.AddEdge(3, 4, 1) },
		"extra block": func(pf *profile.Profile) { pf.BlockCount = append(pf.BlockCount, 0) },
	}
	for name, mutate := range mutations {
		pf := goldenProfile()
		mutate(pf)
		if pf.Fingerprint() == base {
			t.Errorf("%s mutation did not change fingerprint", name)
		}
	}
	if goldenProfile().Fingerprint() != base {
		t.Fatal("fingerprint is not stable across identical rebuilds")
	}
}
